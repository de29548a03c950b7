"""Standing sliding-window kNNTA subscriptions (continuous queries).

The one-shot surface answers "the k best POIs for this interval"; this
package keeps that answer *standing*: a client registers
``(q, window_epochs, k, alpha0, semantics)`` with a
:class:`SubscriptionRegistry` and receives the initial ranked answer
plus ordered top-k deltas (enter / leave / rank-move, each update
carrying the window interval that produced it) every time the window
advances.  Each advance re-runs every subscription's bound-pruned
one-shot ``tree.query()`` at its current window, so every pushed state
is that one-shot answer by construction.  See ``docs/CONTINUOUS.md``.
"""

from repro.continuous.deltas import DeltaKind, TopKDelta, WindowUpdate, diff_topk
from repro.continuous.registry import (
    Subscription,
    SubscriptionRegistry,
    SubscriptionSpec,
)
from repro.continuous.windows import WindowState, window_state

__all__ = [
    "DeltaKind",
    "Subscription",
    "SubscriptionRegistry",
    "SubscriptionSpec",
    "TopKDelta",
    "WindowState",
    "WindowUpdate",
    "diff_topk",
    "window_state",
]
