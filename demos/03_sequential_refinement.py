"""The sequential refinement loop on a scripted backend.

Scenario: the first attempt comes back shaky and wrong, the controller asks
for a re-examination, the second attempt is confident and accepted. A second
scenario shows the answer-consistency override cutting a stubborn loop
short.

Run: python demos/03_sequential_refinement.py
"""

from refinectl.backend import GenerationConfig, MockBackend, MockRecord
from refinectl.confidence import FeatureVector
from refinectl.controller import Action, Decision
from refinectl.refine import LoopConfig, run


class ThresholdPolicy:
    """Stand-in for a trained network: halt once mean pooled confidence
    clears a bar. (A real run would pass a trained ControllerModel here;
    anything with decide() works.)"""

    def __init__(self, bar: float = 12.0):
        self.bar = bar

    def decide(self, feature: FeatureVector) -> Decision:
        if feature.bins.mean() >= self.bar:
            return Decision(Action.HALT, (0.9, 0.06, 0.04), 0.8)
        return Decision(Action.RETHINK, (0.1, 0.7, 0.2), 0.3)


script = [
    MockRecord(text="Let me try... I get \\boxed{45}", confidences=[8.5] * 120),
    MockRecord(text="Rechecking each step... \\boxed{47}", confidences=[16.0] * 90),
]
backend = MockBackend(script)

result = run("A hard competition problem", backend, ThresholdPolicy(),
             GenerationConfig(), LoopConfig(max_iterations=20))

print(f"final answer:   {result.final_answer}")
print(f"iterations:     {result.iterations_used}")
print(f"terminated by:  {result.terminated_by}")
print(f"tokens used:    {result.total_tokens}")
for node in result.nodes:
    print(f"  t={node.depth + 1} action={node.action.name:11s} "
          f"answer={node.answer} conf={node.confidence_mean:.1f}")

# --- the consistency override ---------------------------------------------------
# Three shaky attempts, same answer every time: the loop accepts it rather
# than burn more tokens second-guessing a stable answer.
stubborn = MockBackend([
    MockRecord(text=f"attempt {i}: \\boxed{{19}}", confidences=[9.0] * 50)
    for i in range(5)
])
override = run("Another problem", stubborn, ThresholdPolicy(),
               GenerationConfig(), LoopConfig(consistency_override_count=3))
print(f"\noverride scenario: answer={override.final_answer} "
      f"after {override.iterations_used} iterations ({override.terminated_by})")
