"""Independent numerical oracles shared by the test suite.

Everything here is computed without the library's own backward pass or
aggregation code, so a test that compares against these functions is a real
dual-route check; ``exact_ig`` reads only the layers' weights and biases. The
exceptions are ``layerwise_input_gradient`` and ``per_step_path_gradient``:
they check how the engine schedules backward work (shared forwards, rank-one
tail, point sums), so they chain each layer's own ``backward`` through every
layer at batch 1 without going through the engine.
"""

import math

import numpy as np

from xckit import autodiff
from xckit.errors import XckitError


def fd_gradient(model, x, target, h=1e-3):
    """Central-difference gradient of output[target] w.r.t. each input element.

    Runs the forward pass at float64 regardless of the model's storage dtype.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = autodiff.forward_array(model, x).reshape(-1)[target]
        flat[i] = orig - h
        dn = autodiff.forward_array(model, x).reshape(-1)[target]
        flat[i] = orig
        g_flat[i] = (up - dn) / (2.0 * h)
    return grad


def fd_gradient_at(model, x, target, indices, h=1e-3):
    """fd_gradient restricted to a list of flat input indices."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.zeros(len(indices), dtype=np.float64)
    for k, i in enumerate(indices):
        orig = flat[i]
        flat[i] = orig + h
        up = autodiff.forward_array(model, x).reshape(-1)[target]
        flat[i] = orig - h
        dn = autodiff.forward_array(model, x).reshape(-1)[target]
        flat[i] = orig
        out[k] = (up - dn) / (2.0 * h)
    return out


def relu_preactivations(model, x):
    """Inputs seen by each relu layer, in layer order."""
    x = np.asarray(x)[None]
    pre = []
    for layer in model.layers:
        if layer.kind == "relu":
            pre.append(x[0].copy())
        x, _ = layer.forward(x)
    return pre


def near_relu_kink(model, x, flat_index, h=1e-3):
    """True if perturbing one input coordinate flips a relu activation state.

    A central-difference probe is only unreliable when some relu unit is
    active on one side of the +/-h interval and inactive on the other; while
    every state is preserved the restriction to that coordinate stays in one
    linear piece and the secant is exact. Comparing states (not margins)
    keeps the rejection rate low on wide random networks.
    """
    x = np.asarray(x, dtype=np.float64)
    base = relu_preactivations(model, x)
    flat = x.reshape(-1)
    orig = flat[flat_index]
    flat[flat_index] = orig + h
    up = relu_preactivations(model, x)
    flat[flat_index] = orig - h
    dn = relu_preactivations(model, x)
    flat[flat_index] = orig
    for b, u, d in zip(base, up, dn):
        state = b > 0
        if np.any((u > 0) != state) or np.any((d > 0) != state):
            return True
    return False


def layerwise_input_gradient(model, x, target):
    """Gradient of output[target] at one input: ``_forward``, then every layer's backward.

    All at batch 1, with the one-hot seed carried through every layer in full.
    The result is added to zeros, as the engine adds each point's gradient to
    zeros, so a -0.0 comes out +0.0.
    """
    y, caches = autodiff._forward(model.layers, np.asarray(x)[None])
    g = np.zeros_like(y)
    g.reshape(-1)[target] = 1.0
    for layer, cache in zip(reversed(model.layers), reversed(caches)):
        g, _ = layer.backward(g, cache)
    return g[0] + 0.0


def per_step_path_gradient(model, x, baseline, target, steps, offset=0.5):
    """Mean gradient along the straight path baseline -> x, one point at a time.

    The points are baseline + (k - 1 + offset)/steps * (x - baseline) for
    k = 1..steps, each differentiated alone by ``layerwise_input_gradient``,
    and the gradients are summed in step order: the reference for
    attribution's path engine, which sums the points before the model's
    leading conv2d/dense layers and so runs those once per map.
    """
    x = np.asarray(x, dtype=np.float64)
    baseline = np.zeros_like(x) if baseline is None else np.asarray(baseline, np.float64)
    dx = x - baseline
    acc = np.zeros_like(x)
    for k in range(1, steps + 1):
        alpha = (k - 1 + offset) / steps
        acc += layerwise_input_gradient(model, baseline + alpha * dx, target)
    return acc / steps


def _affine(layer, h, bias=True):
    """A dense or conv2d layer on a (B, ...) float64 batch, with or without its bias."""
    w = layer.weight.astype(np.float64)
    if layer.kind == "dense":
        y = h.reshape(len(h), -1) @ w
    else:
        kh, kw = w.shape[:2]
        _, rows, cols, _ = h.shape
        hp = np.pad(h, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
        y = sum(hp[:, i : i + rows, j : j + cols] @ w[i, j] for i in range(kh) for j in range(kw))
    return y + layer.bias if bias else y


def _affine_transposed(layer, g, in_shape):
    """The transpose of ``_affine``'s linear part: a flipped-kernel conv, or g @ W.T."""
    w = layer.weight.astype(np.float64)
    if layer.kind == "dense":
        return (g.reshape(len(g), -1) @ w.T).reshape(in_shape)
    kh, kw = w.shape[:2]
    _, rows, cols, _ = in_shape
    gp = np.pad(g, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    return sum(gp[:, i : i + rows, j : j + cols] @ w[kh - 1 - i, kw - 1 - j].T
               for i in range(kh) for j in range(kw))


def _sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def exact_ig(model, x, baseline, target):
    """Integrated gradients of output[target] along baseline -> x, with no quadrature.

    For models of the form (affine)* -> relu -> (affine)* -> [sigmoid], with
    odd conv kernels. On the path b + alpha * (x - b) the leading affine run
    gives the relu input A + alpha * Q: A is the run at b with its biases, Q
    the run on x - b without them. So each relu unit switches once, at
    tau = -A/Q, and between switches the logit is linear in alpha: the sum over
    the active units of (A + alpha * Q) * u, plus c, where u is the tail's unit
    map for the target and c the tail at zero. Over a segment of length L
    and slope s, the integral of sigmoid' is (sigma(z1) - sigma(z0)) / s,
    evaluated as sigma(z_hi) * sigma(-z_lo) * L * (-expm1(-|s| L) / (|s| L)),
    which stays exact as s goes to 0 (then it is sigma' * L). Without a
    sigmoid it is L. A unit's weight w is the integral over the segments
    where it is active, read off prefix sums, and the map is
    (x - b) * (the leading run's transpose of u * w).
    """
    kinds = [layer.kind for layer in model.layers]
    r = kinds.index("relu")
    lead, tail = model.layers[:r], model.layers[r + 1 :]
    squash = bool(tail) and tail[-1].kind == "sigmoid"
    tail = tail[:-1] if squash else tail
    if any(layer.kind not in ("dense", "conv2d") for layer in lead + tail):
        raise ValueError(f"not an (affine)* -> relu -> (affine)* -> [sigmoid] model: {kinds}")
    x = np.asarray(x, dtype=np.float64)
    b = np.zeros_like(x) if baseline is None else np.asarray(baseline, np.float64)
    d = x - b
    a_run, q_run, lead_shapes = b[None], d[None], []
    for layer in lead:
        lead_shapes.append(q_run.shape)
        a_run, q_run = _affine(layer, a_run), _affine(layer, q_run, bias=False)
    A, Q = a_run.reshape(-1), q_run.reshape(-1)
    c, tail_shapes = np.zeros(a_run.shape), []
    for layer in tail:
        tail_shapes.append(c.shape)
        c = _affine(layer, c)
    u = np.zeros(c.shape)
    u.reshape(-1)[target] = 1.0
    for layer, shape in zip(reversed(tail), reversed(tail_shapes)):
        u = _affine_transposed(layer, u, shape)
    u, c = u.reshape(-1), c.reshape(-1)[target]

    with np.errstate(divide="ignore", invalid="ignore"):
        tau = -A / Q
    cuts = np.unique(np.concatenate([[0.0, 1.0], tau[(tau > 0) & (tau < 1)]]))
    mids = (cuts[:-1] + cuts[1:]) / 2
    z = np.concatenate([np.maximum(A + a[:, None] * Q, 0.0) @ u + c
                        for a in np.array_split(cuts, len(cuts) // 256 + 1)])
    slope = np.concatenate([(A + m[:, None] * Q > 0) @ (Q * u)
                            for m in np.array_split(mids, len(mids) // 256 + 1)])
    length = np.diff(cuts)
    if squash:
        t = np.abs(slope) * length
        safe = np.where(t > 0, t, 1.0)
        ratio = np.where(t > 0, -np.expm1(-safe) / safe, 1.0)
        lo, hi = np.minimum(z[:-1], z[1:]), np.maximum(z[:-1], z[1:])
        seg = _sigmoid(hi) * _sigmoid(-lo) * length * ratio
    else:
        seg = length
    prefix = np.concatenate([[0.0], np.cumsum(seg)])
    k = np.searchsorted(cuts, np.clip(np.nan_to_num(tau), 0.0, 1.0))
    w = np.where(Q > 0, prefix[-1] - prefix[k], np.where(Q < 0, prefix[k], prefix[-1] * (A > 0)))
    g = (u * w).reshape(a_run.shape)
    for layer, shape in zip(reversed(lead), reversed(lead_shapes)):
        g = _affine_transposed(layer, g, shape)
    return d * g[0]


def fd_param_gradient(params, batch, index, h=1e-4):
    """Central-difference gradient of a relu MLP's mean logistic loss w.r.t. params[index].

    ``params`` is (W1, b1, W2, b2) of the d -> hidden -> 1 network; the loss
    is evaluated by the float64 forward pass below, on float64 copies.
    """
    inputs, targets = batch
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    work = [np.array(p, dtype=np.float64) for p in params]

    def loss_value():
        w1, b1, w2, b2 = work
        z = (np.maximum(x @ w1 + b1, 0.0) @ w2 + b2).reshape(-1)
        # log(1 + e^z) - y*z, stabilized
        return float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z))

    flat_param = work[index].reshape(-1)
    grad = np.zeros(flat_param.size, dtype=np.float64)
    for i in range(flat_param.size):
        orig = flat_param[i]
        flat_param[i] = orig + h
        up = loss_value()
        flat_param[i] = orig - h
        dn = loss_value()
        flat_param[i] = orig
        grad[i] = (up - dn) / (2.0 * h)
    return grad.reshape(work[index].shape)


def oracle_xc(values, box, grid, a_thresh, margin):
    """Naive per-pixel XC reference: scalar loops, direct point-in-polygon.

    ``values`` is an (H, W, C) or (H, W) array-like; ``box`` and ``grid``
    carry the same fields as the library types but only plain attributes are
    read. Returns a dict with all accumulators and ratios (ratios None when
    the denominator is zero).
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim == 2:
        vals = vals[:, :, None]
    h, w, _ = vals.shape

    # enlarged footprint corners, rotated by hand
    dx = box.dx + 2.0 * margin
    dy = box.dy + 2.0 * margin
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    corners = []
    for lx, ly in ((dx / 2, dy / 2), (-dx / 2, dy / 2), (-dx / 2, -dy / 2), (dx / 2, -dy / 2)):
        corners.append((box.cx + (lx * c - ly * s), box.cy + (lx * s + ly * c)))

    def inside(px, py):
        for i in range(4):
            x1, y1 = corners[i]
            x2, y2 = corners[(i + 1) % 4]
            if (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) < 0.0:
                return False
        return True

    acc = {}
    for sign in ("plus", "minus"):
        in_vals, all_vals = [], []
        c_in = c_all = 0
        for iy in range(h):
            py = grid.origin_y + (iy + 0.5) * grid.pixel_size
            for ix in range(w):
                px = grid.origin_x + (ix + 0.5) * grid.pixel_size
                channels = vals[iy, ix]
                if sign == "plus":
                    agg = math.fsum(max(float(v), 0.0) for v in channels)
                else:
                    agg = math.fsum(max(-float(v), 0.0) for v in channels)
                if agg >= a_thresh:
                    all_vals.append(agg)
                    c_all += 1
                    if inside(px, py):
                        in_vals.append(agg)
                        c_in += 1
        s_in = math.fsum(in_vals)
        s_all = math.fsum(all_vals)
        acc[f"s_{sign}"] = s_in
        acc[f"S_{sign}"] = s_all
        acc[f"c_{sign}"] = c_in
        acc[f"C_{sign}"] = c_all
        acc[f"xc_s_{sign}"] = s_in / s_all if s_all > 0 else None
        acc[f"xc_c_{sign}"] = float(c_in) / float(c_all) if c_all > 0 else None
    return acc


def _roll_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def reference_bev_corners(box):
    """Footprint corners of ``box`` by the original projection and checks.

    Rotates with the same numpy expressions as ``geometry.project_to_bev``
    and validates with the original ``np.roll`` area and convexity tests,
    raising XckitError with the same message wherever a valid polygon cannot
    be formed.
    """
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hx, hy = 0.5 * box.dx, 0.5 * box.dy
    local = np.array([(hx, hy), (-hx, hy), (-hx, -hy), (hx, -hy)])
    rot = np.array([[c, -s], [s, c]])
    pts = local @ rot.T + np.array([box.cx, box.cy])
    if _roll_area(pts) <= 0:
        raise XckitError("polygon corners must be counter-clockwise with positive area")
    e_in = pts - np.roll(pts, 1, axis=0)
    e_out = np.roll(pts, -1, axis=0) - pts
    if np.any(e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0] < 0):
        raise XckitError("polygon must be convex")
    return pts


def reference_iou_3d(a, b):
    """Volume IoU that always projects and clips both footprints, on numpy scalars.

    Sutherland-Hodgman clipping of a's quad by b's, a clipped area under
    1e-10 m^2 counting as empty, then the vertical interval overlap.
    """
    subject = [tuple(p) for p in reference_bev_corners(a)]
    clip = reference_bev_corners(b)
    for i in range(4):
        if not subject:
            break
        (x1, y1), (x2, y2) = clip[i], clip[(i + 1) % 4]
        sides = [(x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) for p in subject]
        out = []
        for k, (cur, cur_side) in enumerate(zip(subject, sides)):
            prev, prev_side = subject[k - 1], sides[k - 1]
            if (cur_side >= 0) != (prev_side >= 0):
                t = prev_side / (prev_side - cur_side)
                out.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
            if cur_side >= 0:
                out.append(cur)
        subject = out
    bev = abs(_roll_area(np.asarray(subject))) if len(subject) >= 3 else 0.0
    if bev < 1e-10:
        return 0.0
    z_lo = max(a.cz - 0.5 * a.dz, b.cz - 0.5 * b.dz)
    z_hi = min(a.cz + 0.5 * a.dz, b.cz + 0.5 * b.dz)
    if z_hi <= z_lo:
        return 0.0
    inter = bev * (z_hi - z_lo)
    return min(max(inter / (a.volume + b.volume - inter), 0.0), 1.0)


def reference_membership_mask(corners, grid):
    """(H, W) mask of pixel centers in or on a CCW quad, testing every pixel of the grid."""
    xs = grid.origin_x + (np.arange(grid.width) + 0.5) * grid.pixel_size
    ys = grid.origin_y + (np.arange(grid.height) + 0.5) * grid.pixel_size
    px = np.broadcast_to(xs, (grid.height, grid.width))
    py = np.broadcast_to(ys[:, None], (grid.height, grid.width))
    inside = np.ones((grid.height, grid.width), dtype=bool)
    for i in range(4):
        x1, y1 = corners[i]
        x2, y2 = corners[(i + 1) % 4]
        inside &= (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) >= 0.0
    return inside


def mann_whitney_auc(scores, labels):
    """Exhaustive pairwise AUROC: concordant + half-tied over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    diff = pos[:, None] - neg[None, :]
    return (np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)) / (
        pos.size * neg.size
    )


def _midranks(x):
    """1-based ranks of ``x``, each tie group taking the mean of the ranks it spans."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def delong(scores, labels):
    """AUROCs of k score vectors sharing ``labels``, and their k x k DeLong covariance.

    Sun and Xu's midrank form (IEEE SPL 21(11), 2014) of DeLong, DeLong and
    Clarke-Pearson (Biometrics 44(3), 1988): each positive's placement value
    is the share of negatives it outranks (ties count half), and each
    negative's is the share of positives that outrank it. The covariance is
    S10/m + S01/n, from the sample covariances of those placement values over
    the m positives and the n negatives.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    labels = np.asarray(labels, dtype=bool)
    x, y = scores[:, labels], scores[:, ~labels]
    m, n = x.shape[1], y.shape[1]
    tx = np.array([_midranks(r) for r in x])
    ty = np.array([_midranks(r) for r in y])
    tz = np.array([_midranks(r) for r in np.hstack([x, y])])
    aucs = tz[:, :m].sum(axis=1) / (m * n) - (m + 1) / (2.0 * n)
    v10 = (tz[:, :m] - tx) / n
    v01 = 1.0 - (tz[:, m:] - ty) / m
    cov = np.atleast_2d(np.cov(v10)) / m + np.atleast_2d(np.cov(v01)) / n
    return aucs, cov


def ap_step_oracle(scores, labels):
    """Average precision by direct threshold sweep (scalar, definition-first)."""
    scores = [float(s) for s in scores]
    labels = [bool(l) for l in labels]
    n_pos = sum(labels)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        picked = [l for s, l in zip(scores, labels) if s >= t]
        tp = sum(picked)
        recall = tp / n_pos
        precision = tp / len(picked)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def tie_grouped_counts(scores, labels):
    """(positives, totals) per unique score in descending score order, by a dict loop.

    0.0 and -0.0 compare and hash equal, so they share one group.
    """
    counts = {}
    for score, label in zip(scores.tolist(), labels.tolist()):
        pos, tot = counts.get(score, (0, 0))
        counts[score] = (pos + bool(label), tot + 1)
    order = sorted(counts, reverse=True)
    return [counts[k][0] for k in order], [counts[k][1] for k in order]
