"""Test helpers for the forecast: the scalar reference of the blend, and a
history cut as predictor.refresh cuts it, for groupings picked by hand."""

from dataclasses import replace

from worldcache import FullHistory, GroupAssignment, PredictorKind, TokenGroup, TokenMatrix
from worldcache.predictor import row_split

LABEL_STABLE, LABEL_LINEAR, LABEL_CHAOTIC = (int(g) for g in TokenGroup)


def ref_blend(y_star, v_latest, v_prev, label, horizon, alpha):
    """One row of the forecast, in pure Python, for a row carrying `label`."""
    if label == LABEL_STABLE:
        return list(y_star)
    if label == LABEL_LINEAR:
        return [y + horizon * v for y, v in zip(y_star, v_latest)]
    return [
        y + horizon * ((1.0 - alpha) * vl + alpha * vp)
        for y, vl, vp in zip(y_star, v_latest, v_prev)
    ]


def cut_history(
    h: FullHistory, g: GroupAssignment | None, kind: PredictorKind = PredictorKind.CHTP
) -> FullHistory:
    """h with v_prev cut to the chaotic rows row_split gives kind under g, the
    one form of history predict reads."""
    _, chaotic = row_split(kind, g, h.output.n_tokens)
    return replace(h, v_prev=TokenMatrix(h.v_prev.data[chaotic]))
