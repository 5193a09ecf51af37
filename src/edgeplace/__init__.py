"""Serverless function placement at the edge.

A reinforcement-learned placement agent with exact per-function traffic
routing, an exact joint MIP reference solver, greedy baselines,
a workload synthesizer, a decision verifier, and a benchmark harness.
"""

from .baselines import JointSolution, solve_creua, solve_joint_milp, solve_vsvbp
from .env import (
    VIOLATIONS,
    LockstepEnv,
    PlacementEnv,
    RewardBounds,
    StepOutcome,
    build_state_scale,
    make_queue,
    normalize_and_reward,
    run_episode,
    state_dim,
    t_max_bound,
    window_rewards,
)
from .model import (
    FunctionSpec,
    NodeSpec,
    Scenario,
    ScenarioError,
    Topology,
    load_scenario,
    save_scenario,
    validate_scenario,
    validate_topology,
)
from .nn import MLP, Adam, PolicyArchitectureError
from .ppo import (
    PolicyAgent,
    PPOConfig,
    Trajectory,
    compute_gae,
    deterministic_action,
    forward,
    load_policy,
    ppo_update,
    sample_actions,
    save_policy,
)
from .routing import (
    RoutingProblem,
    RoutingSolution,
    chosen_nodes,
    solve_routing,
    total_delay,
)
from .scenarios import PRESETS, build_preset, preset_workload_config, random_scenario
from .verify import verify_decision, verify_file
from .workload import WorkloadGenConfig, generate_workloads, ingest_trace, write_trace

__version__ = "0.1.0"
