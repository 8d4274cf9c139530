"""Tree-structured refinement: warmup, branching, early stopping, voting.

Two scripted scenarios: an easy problem where all warmup traces agree and
the tree stops after four nodes, and a hard one where a single confident
trace halts while everything else keeps branching until the depth cap. A
tree returns the same ``RunResult`` as the sequential loop; its
``terminated_by`` says why it stopped.

Run: python demos/04_tree_refinement.py
"""

from refinectl.backend import GenerationConfig, MockBackend, MockRecord
from refinectl.confidence import FeatureVector
from refinectl.controller import Action, Decision
from refinectl.datasets import Problem
from refinectl.refine import LoopConfig
from refinectl.tree import TreeConfig, run_tree, tree_metrics


class ThresholdPolicy:
    def __init__(self, bar: float = 12.0):
        self.bar = bar

    def decide(self, feature: FeatureVector) -> Decision:
        if feature.bins.mean() >= self.bar:
            return Decision(Action.HALT, (0.9, 0.06, 0.04), 0.8)
        # alternate rethink/alternative by how far below the bar we are
        if feature.bins.mean() >= self.bar - 4:
            return Decision(Action.RETHINK, (0.1, 0.7, 0.2), 0.3)
        return Decision(Action.ALTERNATIVE, (0.1, 0.2, 0.7), 0.2)


def record(answer: str, conf: float, n: int = 40) -> MockRecord:
    return MockRecord(text=f"... \\boxed{{{answer}}}", confidences=[conf] * n)


GEN = GenerationConfig()
TREE = TreeConfig(warmup=4, branch_factor=2, max_depth=3, vote="majority")
print(f"node budget: {TREE.max_nodes()} maximum")

# --- easy problem: consensus at warmup -------------------------------------------
easy = MockBackend([record("7", 16.0) for _ in range(4)])
run_easy = run_tree(Problem(id="easy", statement="easy problem", ground_truth="7"),
                    easy, ThresholdPolicy(), GEN, TREE, LoopConfig())
print(f"\neasy: {len(run_easy.nodes)} nodes, terminated_by={run_easy.terminated_by}, "
      f"answer={run_easy.final_answer}, tokens={run_easy.total_tokens}")

# --- hard problem: one good trace, everyone else explores -------------------------
script = [record("2304", 16.5), record("40", 10.0), record("20", 6.0), record("18", 6.5)]
script += [record(str(30 + i), 9.5 if i % 2 else 6.0) for i in range(6)]   # depth 1
script += [record(str(50 + i), 10.0 if i % 3 else 6.5) for i in range(12)]  # depth 2
script += [record(str(70 + i), 9.0) for i in range(24)]                     # depth 3
hard = MockBackend(script)
run_hard = run_tree(Problem(id="hard", statement="hard problem", ground_truth="2304"),
                    hard, ThresholdPolicy(), GEN, TREE, LoopConfig())

print(f"\nhard: {len(run_hard.nodes)} nodes explored, "
      f"max depth {run_hard.max_depth_explored()}, terminated_by={run_hard.terminated_by}")
for node in run_hard.nodes:
    indent = "  " * node.depth
    mark = "*" if node.halting else " "
    print(f"{mark} {indent}node {node.id:2d} (parent {node.parent}) "
          f"answer={node.answer} conf={node.confidence_mean:.1f} {node.action.name}")
print(f"halted nodes: {run_hard.halted_node_ids} -> final {run_hard.final_answer}")

# --- behaviour metrics over both runs ----------------------------------------------
metrics = tree_metrics([run_easy, run_hard], {"easy": "7", "hard": "2304"})
print(f"\nearly-stop rate: {metrics.early_stop_rate:.0%}, "
      f"halt precision: {metrics.halt_precision}, "
      f"mean nodes: {metrics.nodes_explored_mean:.1f}, "
      f"action mix: { {k: round(v, 2) for k, v in metrics.action_distribution.items()} }")
