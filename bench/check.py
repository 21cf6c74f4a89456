"""Independent numpy checks of covkit's CLI output.

Each check takes the document (with the generator's ``expect`` data), the
exit code and the stdout text, and returns ``(problems, facts)``: a list of
what is wrong (empty when the output is right) and a short verdict string
for the digest.  The facts hold no seed-dependent numbers, so the digests of
two commits, or of two seeds, can be compared line by line.
"""

from __future__ import annotations

import json

import numpy as np

import gen

TOL = 1e-7


def carr(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def choi_rank(m) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0


def close(a, b, tol=TOL) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * max(1.0, float(np.max(np.abs(b), initial=0.0)))


def psd(m, tol=TOL) -> bool:
    return close(m, m.conj().T) and float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()) >= -tol


# -- validity of objects, written from their definitions in docs/FORMAT.md ------


def instrument_problems(choi, d) -> list:
    mul, w, _ = gen.heisenberg(d)
    out = []
    if not all(psd(c) for c in choi):
        out.append("an outcome is not CP")
    effects = np.einsum("wbvbx->wvx", choi.reshape(len(choi), d, d, d, d))
    if not close(effects.sum(axis=0), np.eye(d)):
        out.append("outcomes do not sum to a channel")
    for g in range(d * d):
        wg = np.kron(w[g].conj(), w[g])
        moved = np.einsum("ab,wbc,dc->wad", wg, choi, wg.conj())
        if not close(moved, choi[mul[g]]):
            out.append("not covariant")
            break
    return out


def observable_problems(effects, grp, members, rep) -> list:
    _, section, proj = grp.cosets(members)
    out = []
    if not all(psd(e) for e in effects):
        out.append("an effect is not positive")
    if not close(effects.sum(axis=0), np.eye(rep.shape[1])):
        out.append("effects do not sum to the identity")
    for g in range(grp.order):
        moved = np.einsum("ab,wbc,dc->wad", rep[g], effects, rep[g].conj())
        target = effects[[proj[grp.mul[g, s]] for s in section]]
        if not close(moved, target):
            out.append("not covariant")
            break
    return out


def cp_choi(values, n):
    nv = values.shape[1]
    return values.reshape(n, n, nv, nv).transpose(0, 2, 1, 3).reshape(n * nv, n * nv)


def cpmap_problems(values, u, rep) -> list:
    n = u.shape[1]
    out = []
    if not psd(cp_choi(values, n)):
        out.append("not completely positive")
    vals = values.reshape(n, n, *values.shape[1:])
    for g in range(u.shape[0]):
        # S(u E_ab u^+) = sum_cd u[c, a] conj(u[d, b]) S(E_cd)
        moved = np.einsum("ca,db,cdvw->abvw", u[g], u[g].conj(), vals)
        if not close(moved, np.einsum("vx,abxy,wy->abvw", rep[g], vals, rep[g].conj())):
            out.append("not covariant")
            break
    return out


def kernel_problems(blocks, grp, u) -> list:
    x = blocks.shape[0]
    out = []
    grand = blocks.transpose(0, 2, 1, 3).reshape(x * blocks.shape[2], -1)
    if not psd(grand):
        out.append("kernel not positive")
    act = grp.action()
    for g in range(grp.order):
        moved = blocks[np.ix_(act[g], act[g])]
        if not close(moved, np.einsum("vx,abxy,wy->abvw", u[g], blocks, u[g].conj())):
            out.append("not covariant")
            break
    return out


# -- per command -----------------------------------------------------------------


def _report(stdout):
    return json.loads(stdout)


def _split(doc, report, field, problems_of):
    """Neighbours must average to the input and re-validate."""
    split = report["artifacts"].get("split")
    if split is None:
        return ["non-extreme verdict without a split"]
    pair = [carr(split[s][field]) for s in ("plus", "minus")]
    out = []
    if not close(0.5 * (pair[0] + pair[1]), doc.expect[field]):
        out.append("neighbours do not average to the input")
    for nb in pair:
        out += [f"neighbour: {p}" for p in problems_of(nb)]
    return out


def check_extremal(doc, code, stdout):
    report = _report(stdout)
    decision = report["artifacts"]["decision"]
    extreme, freedom = decision["extreme"], decision["freedom"]
    exp, kind = doc.expect, doc.expect["kind"]
    problems = []
    for key in ("extreme", "freedom"):
        if key in exp and exp[key] != decision[key]:
            problems.append(f"{key} is {decision[key]}, expected {exp[key]}")
    if not extreme:
        if kind == "instrument":
            problems += _split(doc, report, "choi", lambda c: instrument_problems(c, exp["d"]))
        elif kind == "observable":
            problems += _split(
                doc, report, "effects",
                lambda e: observable_problems(e, exp["grp"], exp["members"], exp["rep"]),
            )
        elif kind == "cpmap":
            n = exp["u"].shape[1]

            def cp_problems(v):
                same_unit = close(v[:: n + 1].sum(axis=0), exp["values"][:: n + 1].sum(axis=0))
                return cpmap_problems(v, exp["u"], exp["rep"]) + ([] if same_unit else ["unit value moved"])

            problems += _split(doc, report, "values", cp_problems)
        elif kind == "kernel":

            def kernel_nb_problems(b):
                diag = [close(b[x, x], exp["blocks"][x, x]) for x in range(b.shape[0])]
                return kernel_problems(b, exp["grp"], exp["u"]) + ([] if all(diag) else ["moved on Z"])

            problems += _split(doc, report, "blocks", kernel_nb_problems)
    return problems, f"extreme={extreme} freedom={freedom}"


def check_dilate(doc, code, stdout):
    report = _report(stdout)
    exp, kind = doc.expect, doc.expect["kind"]
    problems = []
    if not all(v["ok"] for v in report["verdicts"].values()):
        problems.append("a certificate failed")
    if kind == "kernel":
        art = report["artifacts"]["decomposition"]
        f = carr(art["factors"])
        if not close(np.einsum("xiv,yiw->xyvw", f.conj(), f), exp["blocks"]):
            problems.append("factors do not reproduce the kernel")
        x, nv = exp["blocks"].shape[0], exp["blocks"].shape[2]
        want = choi_rank(exp["blocks"].transpose(0, 2, 1, 3).reshape(x * nv, x * nv))
        rank = art["rank"]
    elif kind == "cpmap":
        art = report["artifacts"]["dilation"]
        j, pi = carr(art["j"]), carr(art["pi_units"])
        if not close(np.einsum("iv,kij,jw->kvw", j.conj(), pi, j), exp["values"]):
            problems.append("dilation does not reproduce the values")
        n = exp["u"].shape[1]
        want, rank = n * choi_rank(cp_choi(exp["values"], n)), art["rank"]
    elif kind == "observable":
        art = report["artifacts"]["naimark"]
        iso, dims = carr(art["isometry"]), art["fiber_dims"]
        offsets = np.cumsum([0] + dims)
        rebuilt = [iso[a:b].conj().T @ iso[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
        if not close(np.stack(rebuilt), exp["effects"]):
            problems.append("Naimark isometry does not reproduce the effects")
        want, rank = [choi_rank(e) for e in exp["effects"]], dims
    else:  # instrument as a CP map: an isometric intertwiner of the right size
        art = report["artifacts"]["dilation"]
        j, d = carr(art["j"]), exp["d"]
        if not close(j.conj().T @ j, np.eye(d)):
            problems.append("intertwiner is not an isometry")
        want, rank = d * sum(choi_rank(c) for c in exp["choi"]), art["rank"]
        if j.shape[0] != rank:
            problems.append("intertwiner size differs from the rank")
    if rank != want:
        problems.append(f"rank {rank}, numpy says {want}")
    return problems, f"rank={rank}"


def check_kraus(doc, code, stdout):
    report = _report(stdout)
    art = report["artifacts"]["kraus"]
    ops, exp = carr(art["operators"]), doc.expect
    problems = []
    if exp["kind"] == "cpmap":
        n = exp["u"].shape[1]
        vals = np.einsum("lav,lbw->abvw", ops.conj(), ops).reshape(exp["values"].shape)
        if not close(vals, exp["values"]):
            problems.append("Kraus family does not reproduce the map")
        want = choi_rank(cp_choi(exp["values"], n))
    else:
        if not close(gen.phase_space_choi(exp["d"], ops), exp["choi"]):
            problems.append("generating family does not reproduce the instrument")
        want = choi_rank(exp["choi"][0])
    if art["count"] != want or len(ops) != want:
        problems.append(f"Kraus count {art['count']}, Choi rank {want}")
    return problems, f"count={art['count']}"


def check_validate(doc, code, stdout):
    report = _report(stdout)
    all_ok = all(v["ok"] for v in report["verdicts"].values())
    want = 0 if doc.expect["valid"] else 1
    problems = []
    if code != want:
        problems.append(f"exit {code}, expected {want}")
    if all_ok != doc.expect["valid"]:
        problems.append("verdicts disagree with the document's validity")
    return problems, f"all_ok={all_ok}"


def check_phase_space(doc, code, stdout):
    out = json.loads(stdout)
    choi = carr(out["payload"]["choi"])
    problems = [] if close(choi, doc.expect["choi"]) else ["instrument differs from numpy's"]
    return problems, f"outcomes={len(choi)}"


def check_sample(doc, code, stdout):
    exp = doc.expect
    d, rho, n = exp["d"], exp["rho"], exp["n"]
    _, w, _ = gen.heisenberg(d)
    kraus = [[w[o] @ b @ w[o].conj().T for b in exp["ops"]] for o in range(d * d)]
    born = np.array([sum(np.trace(k @ rho @ k.conj().T).real for k in ks) for ks in kraus])
    born = born / born.sum()
    lines = stdout.splitlines()
    problems = [] if len(lines) == n else [f"{len(lines)} draws, expected {n}"]
    counts = np.zeros(d * d)
    checked = set()
    for line in lines:
        outcome, prob, post = json.loads(line)
        counts[outcome] += 1
        if outcome in checked:
            continue
        checked.add(outcome)
        state = sum(k @ rho @ k.conj().T for k in kraus[outcome])
        if abs(prob - born[outcome]) > 1e-9 or not close(carr(post), state / np.trace(state).real):
            problems.append(f"outcome {outcome}: probability or post state wrong")
    sigma = np.sqrt(born * (1 - born) / n)
    if np.any(np.abs(counts / n - born) > 5 * sigma + 1.0 / n):
        problems.append("frequencies do not match the Born probabilities")
    return problems, f"draws={len(lines)}"


CHECKS = {
    "extremal": check_extremal,
    "dilate": check_dilate,
    "kraus": check_kraus,
    "validate": check_validate,
    "phase-space": check_phase_space,
    "sample": check_sample,
}


def check(doc, code, stdout):
    """Problems and digest facts for one finished invocation."""
    if code not in (0, 1):
        return [f"exit {code}"], f"exit={code}"
    if code == 1 and doc.argv[0] != "validate":
        return ["exit 1"], "exit=1"
    try:
        problems, facts = CHECKS[doc.argv[0]](doc, code, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], f"exit={code}"
    return problems, f"exit={code} {facts}"
