"""Batch command-line front end.

Subcommands: formula, curve, points, table1, table2, secants, verify-main.
Every run is driven by an explicit configuration (field, seed, format); all
randomness is seed-derived, so identical configurations produce identical
output bytes.  `curve` and `secants` build the entries of
`varieties.CONSTRUCTIONS` that they offer.  Exit codes: 0 success, 1
verification/construction failure, 2 usage or file-format error (such as
construction parameters out of range, in `secants` too, or a prime up to
10^6 for `secants` and `table2`).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import cohomology, formulas, pointconfig, secants, varieties
from .exactcore import QQ, Field, PrimeField

DEFAULT_PRIME = 10007
DEFAULT_TERRACINI_PRIME = 1000003
DEFAULT_SEED = 42


@dataclass
class Report:
    """Renderable result of one command: summary pairs plus named tables."""

    config: dict
    summary: list
    tables: list  # (name, header, rows)
    failed: bool = False

    def render(self, fmt: str) -> str:
        if fmt == "json":
            payload = {
                "config": self.config,
                "summary": {k: v for k, v in self.summary},
                "tables": {
                    name: {"header": header, "rows": rows}
                    for name, header, rows in self.tables
                },
            }
            return json.dumps(payload, indent=2) + "\n"
        if fmt == "csv":
            out = io.StringIO()
            out.write("# config: " + json.dumps(self.config) + "\n")
            for k, v in self.summary:
                out.write(f"# {k}: {v}\n")
            writer = csv.writer(out, lineterminator="\n")
            for name, header, rows in self.tables:
                if len(self.tables) > 1:
                    out.write(f"# table: {name}\n")
                writer.writerow(map(str, header))
                writer.writerows(map(str, row) for row in rows)
            return out.getvalue()
        lines = ["# " + json.dumps(self.config)]
        for k, v in self.summary:
            lines.append(f"{k} = {v}")
        for name, header, rows in self.tables:
            lines.append("")
            lines.append(f"[{name}]")
            widths = [
                max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
                for i, h in enumerate(header)
            ]
            lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
            for row in rows:
                lines.append("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
        return "\n".join(lines) + "\n"


def _field_from_args(args, default_prime: int = DEFAULT_PRIME) -> Field:
    if getattr(args, "q", False):
        return QQ
    p = getattr(args, "p", None)
    return PrimeField(p if p is not None else default_prime)


def _terracini_field(args) -> Field:
    """Field of a Terracini run; a --trials below 1 or a prime up to 10^6
    is a usage error."""
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    fld = _field_from_args(args, default_prime=DEFAULT_TERRACINI_PRIME)
    secants.check_terracini_field(fld)
    return fld


def _field_spec(fld: Field):
    return "Q" if not fld.is_prime_field else fld.p


def _config(args, command: str, fld: Optional[Field], **extra) -> dict:
    cfg = {"command": command, "seed": args.seed, "format": args.format}
    if fld is not None:
        cfg["field"] = _field_spec(fld)
    cfg.update(extra)
    return cfg


def _emit(report: Report, args) -> int:
    text = report.render(args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if report.failed else 0


# ------------------------------------------------------------------ formula


def cmd_formula(args) -> int:
    name = args.func_name
    if name == "identities":
        rep = formulas.identity_suite(args.nmax, args.cmax, args.mmax)
        rows = [
            (c.name, c.description, "PASS" if c.passed else f"FAIL at {c.counterexample}")
            for c in rep.checks
        ]
        n_pass = sum(c.passed for c in rep.checks)
        verdict = (
            f"all {len(rep.checks)} identity families PASS"
            if rep.all_passed
            else f"{len(rep.checks) - n_pass} identity families FAIL"
        )
        report = Report(
            config=_config(args, "formula identities", None,
                           nmax=args.nmax, cmax=args.cmax, mmax=args.mmax),
            summary=[("verdict", verdict)],
            tables=[("identities", ["name", "statement", "status"], rows)],
            failed=not rep.all_passed,
        )
        return _emit(report, args)

    if name == "F":
        value = formulas.F(args.n, args.c, args.m)
        label = f"F({args.n},{args.c},{args.m})"
    elif name == "G":
        value = formulas.G(args.t, args.n, args.c, args.m)
        label = f"G({args.t};{args.n},{args.c},{args.m})"
    elif name == "H":
        value = formulas.H(args.k, args.n, args.c, args.m)
        label = f"H({args.k};{args.n},{args.c},{args.m})"
    elif name == "u":
        value = formulas.u(args.c, args.g, args.d, args.m)
        label = f"u({args.c},{args.g},{args.d},{args.m})"
    elif name == "delta":
        ans = formulas.delta_small(args.n, args.c, args.m, args.k)
        report = Report(
            config=_config(args, "formula delta", None,
                           n=args.n, c=args.c, m=args.m, k=args.k),
            summary=[
                ("value", ans.value),
                ("witness_class", ans.witness_class.value),
                ("depth", ans.depth),
                ("tied_with", ans.tied_with.value if ans.tied_with else None),
            ],
            tables=[("delta", ["k", "value"], [(args.k, ans.value)])],
        )
        return _emit(report, args)
    elif name == "delta-curve":
        ans = formulas.delta_curve(args.c, args.m, args.k)
        report = Report(
            config=_config(args, "formula delta-curve", None,
                           c=args.c, m=args.m, k=args.k),
            summary=[
                ("value", ans.value),
                ("genus", ans.genus),
                ("degree", ans.degree),
            ],
            tables=[("delta-curve", ["k", "genus", "degree", "value"],
                     [(args.k, ans.genus, ans.degree, ans.value)])],
        )
        return _emit(report, args)
    else:  # pragma: no cover
        raise AssertionError(name)
    report = Report(
        config=_config(args, f"formula {name}", None),
        summary=[(label, value)],
        tables=[("value", ["expression", "value"], [(label, value)])],
    )
    return _emit(report, args)


# ------------------------------------------------------------------ curve


def _offered(command: str) -> dict:
    """{spelling: construction name} of the table entries that `command`
    offers, in the order of its choices."""
    entries = sorted(
        (getattr(e, command), e.spelling, name)
        for name, e in varieties.CONSTRUCTIONS.items()
        if getattr(e, command) is not None
    )
    return {spelling: name for _, spelling, name in entries}


# descriptor fields that are not read from the flag of the same name
_FIELD_FLAGS = {
    "p": lambda args, fld: fld.p,
    "weierstrass": lambda args, fld: [args.wa, args.wb],
    "f_coeffs": lambda args, fld: args.f if args.f is not None else varieties.GENUS2_DEFAULT_F,
}


def _integer_list(text: str) -> list:
    """The value of a comma-separated integer flag."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _variety(args, fld: Field, command: str, spelling: str):
    """Build what `command` offers as `spelling`, from the construction
    table with the descriptor fields read off the flags; `projected-rnc`
    is the `rnc` curve projected from a general point."""
    name = _offered(command)[spelling]
    if name == "project":
        base = _variety(args, fld, command, "rnc")
        return varieties.project_from_general_point(base, seed=args.seed)
    entry = varieties.CONSTRUCTIONS[name]
    if entry.prime_only and not fld.is_prime_field:
        raise ValueError("this construction needs a prime field")
    cons = {"name": name}
    for f in entry.fields:
        cons[f] = _FIELD_FLAGS[f](args, fld) if f in _FIELD_FLAGS else getattr(args, f)
    return varieties.from_descriptor({"field": _field_spec(fld), "construction": cons})


def cmd_curve(args) -> int:
    if args.m_max < 1:
        raise ValueError("need --m-max >= 1")
    fld = _field_from_args(args)
    v = _variety(args, fld, "curve", args.kind)
    summary = [
        ("label", v.label),
        ("n", v.n),
        ("c", v.c),
        ("d", v.d),
        ("g", v.g),
    ]
    tables = []
    if v.d <= 2 * v.c + 1:
        profile = cohomology.deficiency_profile(v)
        summary += [
            ("reg", profile.reg),
            ("linearly_normal", profile.linearly_normal),
        ]
        m_top = max(max(profile.h1), args.m_max)
        rows = []
        for m in range(1, m_top + 1):
            am = profile.a.get(m)
            if am is None:
                am = cohomology.a_m(v, m)
            u_val = formulas.u(v.c, v.g, v.d, m)
            rows.append((m, am, u_val, am - u_val))
        tables.append(("profile", ["m", "a_m", "u", "h1"], rows))
        try:
            cls = cohomology.classify_a2_curve(v)
            tables.append(
                (
                    "classification",
                    ["k", "case", "h1_2", "identity_ok", "witness_consistent"],
                    [(cls.k, cls.case, cls.h1_2, cls.h1_identity_ok, cls.witness_consistent)],
                )
            )
        except ValueError as err:
            summary.append(("classification", f"not classified ({err})"))
    else:
        summary.append(("profile", f"unsupported: d = {v.d} > 2c+1"))
        rows = [
            (m, cohomology.a_m(v, m))
            for m in range(1, args.m_max + 1)
        ]
        tables.append(("counts", ["m", "a_m"], rows))
    report = Report(
        config=_config(args, f"curve {args.kind}", fld,
                       descriptor=v.descriptor()),
        summary=summary,
        tables=tables,
    )
    return _emit(report, args)


# ------------------------------------------------------------------ points


def cmd_points(args) -> int:
    if args.action == "sample":
        fld = _field_from_args(args)
        v = varieties.rational_normal_curve(args.r, fld)
        cfg = v.sample_points(args.count, seed=args.seed)
        target = args.out_points or "points.txt"
        cfg.write_text(target)
        report = Report(
            config=_config(args, "points sample", fld, r=args.r, count=args.count),
            summary=[("written", target), ("points", len(cfg)), ("c", cfg.c)],
            tables=[],
        )
        return _emit(report, args)

    try:
        cfg = pointconfig.PointConfig.read_text(args.infile)
    except (OSError, ValueError) as err:
        print(f"point-file error: {err}", file=sys.stderr)
        return 2

    if args.action == "check":
        # hilbert(m) = |G| from m = regularity - 1 on, so the row at m =
        # regularity needs no rank of its own
        hil = cfg.hilbert_function() + [len(cfg)]
        summary = [
            ("points", len(cfg)),
            ("c", cfg.c),
            ("span_dim", cfg.span_dim()),
            ("regularity", len(hil) - 1),
        ]
        tables = [("hilbert", ["m", "h"], list(enumerate(hil)))]
        try:
            nv = cfg.nu_vector(force=args.force)
            summary.append(("semi_uniform", nv.semi_uniform))
            tables.append(
                ("nu", ["i", "nu"], [(i, val) for i, val in enumerate(nv.values)])
            )
        except ValueError as err:
            summary.append(("semi_uniform", f"not checked ({err})"))
        report = Report(
            config=_config(args, "points check", cfg.field, infile=args.infile),
            summary=summary,
            tables=tables,
        )
        return _emit(report, args)

    if args.action == "extract3":
        try:
            sub = pointconfig.extract_three_regular(cfg)
        except (ValueError, pointconfig.ExtractionError) as err:
            print(f"extraction failed: {err}", file=sys.stderr)
            return 1
        indices = [cfg.points.index(p) for p in sub.points]
        reg = sub.regularity()
        if args.out_points:
            sub.write_text(args.out_points)
        report = Report(
            config=_config(args, "points extract3", cfg.field, infile=args.infile),
            summary=[
                ("subset_size", len(sub)),
                ("indices", " ".join(str(i) for i in indices)),
                ("span_dim", sub.span_dim()),
                ("regularity", reg),
                ("certified", reg <= 3),
            ],
            tables=[],
        )
        return _emit(report, args)
    raise AssertionError(args.action)  # pragma: no cover


# ------------------------------------------------------------------ table1


def _tally(rows: list) -> list:
    """Summary of a table whose last column is PASS, SKIPPED (...) or FAIL (...)."""
    n_pass = sum(1 for r in rows if r[-1] == "PASS")
    n_skip = sum(1 for r in rows if str(r[-1]).startswith("SKIPPED"))
    return [("rows", len(rows)), ("pass", n_pass), ("skipped", n_skip),
            ("fail", len(rows) - n_pass - n_skip)]


def table1_rows(c: int):
    """The (k, g, d) region of non-linearly-normal curves attaining the
    k-th largest quadric count, with the predicted deficiency pair."""
    rows = []
    for k in range(3, min(7, c) + 1):
        for g in range(0, k - 2):
            d_lo = c + (g + k + 1 + 1) // 2  # ceil(c + (g+k+1)/2)
            for d in range(d_lo, c + k):
                h1_1 = d - c - 1 - g
                h1_2 = 2 * (d - c) - 1 - g - k
                rows.append((k, g, d, h1_1, h1_2))
    return rows


def cmd_table1(args) -> int:
    if args.c < 3:
        raise ValueError("need --c >= 3")  # the table's ranks run k = 3..c
    fld = _field_from_args(args)
    if not fld.is_prime_field:
        raise ValueError("table1 needs a prime field")
    rows = []
    any_fail = False
    for k, g, d, want1, want2 in table1_rows(args.c):
        c = args.c
        try:
            if g == 0:
                a, b = c + k - d, d - k
                witness = f"scroll-section({a},{b};k={d - c})"
                v = varieties.scroll_section_curve(a, b, d - c, fld, seed=args.seed)
            elif d == c + k - 1 and g <= 2:
                witness = f"multisecant(c={c},k={k},g={g})"
                v = varieties.multisecant_projection(c, k, g, fld.p, seed=args.seed)
            else:
                reason = (
                    "curve-scroll source out of scope" if g <= 2 else "source genus > 2"
                )
                rows.append((k, g, f"c+{d - c}", want1, want2, "-", "-", f"SKIPPED ({reason})"))
                continue
        except varieties.ConstructionError as err:
            rows.append((k, g, f"c+{d - c}", want1, want2, "-", "-", f"FAIL ({err})"))
            any_fail = True
            continue
        got1 = cohomology.h1_ideal(v, 1)
        got2 = cohomology.h1_ideal(v, 2)
        ok = (got1, got2) == (want1, want2)
        any_fail = any_fail or not ok
        rows.append(
            (k, g, f"c+{d - c}", want1, want2, got1, got2, "PASS" if ok else f"FAIL ({witness})")
        )
    report = Report(
        config=_config(args, "table1", fld, c=args.c),
        summary=_tally(rows),
        tables=[
            (
                "table1",
                ["k", "g", "d", "h1_1_expected", "h1_2_expected", "h1_1", "h1_2", "status"],
                rows,
            )
        ],
        failed=any_fail,
    )
    return _emit(report, args)


# ------------------------------------------------------------------ table2


def cmd_table2(args) -> int:
    fld = _terracini_field(args)
    rows = []
    any_fail = False

    def run(witness_fn, label, deg_class, depth_class):
        nonlocal any_fail
        try:
            v = witness_fn()
            cmp = secants.table2_row(
                v, deg_class, depth_class, trials=args.trials, seed=args.seed
            )
        except (varieties.ConstructionError, secants.TerraciniError, ValueError) as err:
            rows.append((label, deg_class, depth_class, "-", "-", f"FAIL ({err})"))
            any_fail = True
            return
        exp = " ".join(f"{k}:{val}" for k, val in sorted(cmp.expected.items()))
        got = " ".join(f"{k}:{val}" for k, val in sorted(cmp.computed.items()))
        ok = cmp.ok
        any_fail = any_fail or not ok
        rows.append((label, deg_class, depth_class, exp, got, "PASS" if ok else "FAIL"))

    run(lambda: varieties.rational_normal_curve(3, fld), "rnc(3)", "c+1", "n+1")
    run(lambda: varieties.scroll_surface(1, 2, fld), "scroll(1,2)", "c+1", "n+1")
    run(lambda: varieties.veronese_surface(fld), "veronese", "c+1", "n+1")
    run(
        lambda: varieties.project_from_general_point(
            varieties.rational_normal_curve(4, fld), seed=args.seed
        ),
        "projected rnc(4)",
        "c+2",
        "1",
    )
    run(
        lambda: varieties.project_from_general_point(
            varieties.scroll_surface(1, 4, fld), seed=args.seed
        ),
        "projected scroll(1,4)",
        "c+2",
        "1",
    )
    rows.append(
        ("del Pezzo surface", "c+2", "n+1", "-", "-",
         "SKIPPED (no polynomial-parametrized witness in scope)")
    )
    rows.append(
        ("linearly normal genus-2 curve", "c+3", "n+1", "-", "-",
         "SKIPPED (point-enumerator curve: no parametrization to differentiate)")
    )
    report = Report(
        config=_config(args, "table2", fld, trials=args.trials),
        summary=_tally(rows),
        tables=[
            (
                "table2",
                ["witness", "degree", "depth", "expected", "computed", "status"],
                rows,
            )
        ],
        failed=any_fail,
    )
    return _emit(report, args)


# ------------------------------------------------------------------ secants


def cmd_secants(args) -> int:
    fld = _terracini_field(args)
    try:
        v = _variety(args, fld, "secants", args.construction)
        inv = secants.zak_invariants(v, trials=args.trials, seed=args.seed)
    except (varieties.ConstructionError, secants.TerraciniError) as err:
        print(f"secant run failed: {err}", file=sys.stderr)
        return 1
    report = Report(
        config=_config(args, f"secants {args.construction}", fld,
                       trials=args.trials),
        summary=[
            ("label", inv.label),
            ("n", inv.n),
            ("c", inv.c),
            ("d", inv.d),
            ("a2", inv.a2),
            ("span_dim", inv.span_dim),
            ("ell2", inv.ell2),
            ("k2", inv.k2),
            ("delta2", inv.delta2_total),
            ("zak4_ok", inv.zak4_ok),
            ("zak5_ok", inv.zak5_ok),
        ],
        tables=[
            (
                "secant-dimensions",
                ["k", "s_k", "delta_k"],
                [(k, inv.s[k], inv.delta.get(k, "")) for k in sorted(inv.s)],
            )
        ],
    )
    return _emit(report, args)


# ------------------------------------------------------------------ verify-main


def cmd_verify_main(args) -> int:
    if args.m_max < 2:
        raise ValueError("need --m-max >= 2")  # the checks run m = 2..m_max
    fld = _field_from_args(args)
    if not fld.is_prime_field:
        raise ValueError("verify-main needs a prime field")
    p = fld.p
    rows = []
    any_fail = False

    def check(label, v, expected_fn):
        nonlocal any_fail
        for m in range(2, args.m_max + 1):
            want = expected_fn(m)
            got = cohomology.a_m(v, m)
            ok = got == want
            any_fail = any_fail or not ok
            rows.append((label, m, want, got, "PASS" if ok else "FAIL"))

    for r in (3, 4, 5):
        v = varieties.rational_normal_curve(r, fld)
        check(v.label, v, lambda m, r=r: formulas.F(1, r - 1, m))
    for a, b in ((1, 2), (2, 2)):
        v = varieties.scroll_surface(a, b, fld)
        check(v.label, v, lambda m, c=a + b - 1: formulas.F(2, c, m))
    v = varieties.veronese_surface(fld)
    check(v.label, v, lambda m: formulas.F(2, 3, m))
    for c in (2, 3, 4):
        v = varieties.elliptic_normal_curve(c, p)
        check(v.label, v, lambda m, c=c: formulas.G(2, 1, c, m))
    for c in (3, 4):
        v = varieties.hyperelliptic_g2_curve(c, p)
        check(v.label, v, lambda m, c=c: formulas.H(3, 1, c, m))
    for r in (4, 5, 6):
        v = varieties.project_from_general_point(
            varieties.rational_normal_curve(r, fld), seed=args.seed
        )
        check(v.label, v, lambda m, c=r - 2: formulas.G(1, 1, c, m))
    n_pass = sum(1 for r in rows if r[-1] == "PASS")
    report = Report(
        config=_config(args, "verify-main", fld, m_max=args.m_max),
        summary=[("checks", len(rows)), ("pass", n_pass), ("fail", len(rows) - n_pass)],
        tables=[("verify-main", ["witness", "m", "expected", "a_m", "status"], rows)],
        failed=any_fail,
    )
    return _emit(report, args)


# ------------------------------------------------------------------ parser


def _common_flags(sp):
    field = sp.add_mutually_exclusive_group()
    field.add_argument("--p", type=int, default=None, help="prime modulus of the base field")
    field.add_argument("--q", action="store_true", help="work over the rationals")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--format", choices=["text", "csv", "json"], default="text")
    sp.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypersurfaces",
        description="Exact counts of hypersurfaces through low-degree projective varieties.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    f = sub.add_parser("formula", help="evaluate bound functions and identity checks")
    fsub = f.add_subparsers(dest="func_name", required=True)
    for name in ("F", "G", "H", "u", "delta", "delta-curve", "identities"):
        pf = fsub.add_parser(name)
        if name in ("F", "G", "H", "delta"):
            pf.add_argument("--n", type=int, required=True)
        if name != "identities":
            pf.add_argument("--c", type=int, required=True)
            pf.add_argument("--m", type=int, required=True)
        if name == "G":
            pf.add_argument("--t", type=int, required=True)
        if name == "H" or name == "delta" or name == "delta-curve":
            pf.add_argument("--k", type=int, required=True)
        if name == "u":
            pf.add_argument("--g", type=int, required=True)
            pf.add_argument("--d", type=int, required=True)
        if name == "identities":
            pf.add_argument("--nmax", type=int, default=5)
            pf.add_argument("--cmax", type=int, default=7)
            pf.add_argument("--mmax", type=int, default=7)
        _common_flags(pf)
        pf.set_defaults(handler=cmd_formula, func_name=name)

    c = sub.add_parser("curve", help="build a curve and report its deficiency profile")
    c.add_argument("kind", choices=list(_offered("curve")))
    # defaults every kind runs with: projected-rnc needs r >= 4, multisecant k >= 3
    c.add_argument("--r", type=int, default=4)
    c.add_argument("--c", type=int, default=3)
    c.add_argument("--a", type=int, default=1)
    c.add_argument("--b", type=int, default=2)
    c.add_argument("--k", type=int, default=3)
    c.add_argument("--g", type=int, default=0)
    c.add_argument("--wa", type=int, default=1, help="Weierstrass coefficient A")
    c.add_argument("--wb", type=int, default=1, help="Weierstrass coefficient B")
    c.add_argument("--f", type=_integer_list, default=None,
                   help="genus-2 model coefficients, comma separated")
    c.add_argument("--m-max", dest="m_max", type=int, default=2)
    _common_flags(c)
    c.set_defaults(handler=cmd_curve)

    pt = sub.add_parser("points", help="analyse point configurations")
    ptsub = pt.add_subparsers(dest="action", required=True)
    chk = ptsub.add_parser("check")
    chk.add_argument("--in", dest="infile", required=True)
    chk.add_argument("--force", action="store_true",
                     help="override the nu-vector size cap")
    _common_flags(chk)
    chk.set_defaults(handler=cmd_points, action="check")
    ext = ptsub.add_parser("extract3")
    ext.add_argument("--in", dest="infile", required=True)
    ext.add_argument("--out-points", dest="out_points", default=None)
    _common_flags(ext)
    ext.set_defaults(handler=cmd_points, action="extract3")
    smp = ptsub.add_parser("sample")
    smp.add_argument("--r", type=int, default=3)
    smp.add_argument("--count", type=int, required=True)
    smp.add_argument("--out-points", dest="out_points", default=None)
    _common_flags(smp)
    smp.set_defaults(handler=cmd_points, action="sample")

    t1 = sub.add_parser("table1", help="reproduce the deficiency-pair table")
    t1.add_argument("--c", type=int, default=7)
    _common_flags(t1)
    t1.set_defaults(handler=cmd_table1)

    t2 = sub.add_parser("table2", help="reproduce the secant-invariant table")
    t2.add_argument("--trials", type=int, default=3)
    _common_flags(t2)
    t2.set_defaults(handler=cmd_table2)

    sc = sub.add_parser("secants", help="secant invariants of one construction")
    sc.add_argument("--construction", required=True, choices=list(_offered("secants")))
    sc.add_argument("--r", type=int, default=3)
    sc.add_argument("--a", type=int, default=1)
    sc.add_argument("--b", type=int, default=2)
    sc.add_argument("--k", type=int, default=1)
    sc.add_argument("--trials", type=int, default=3)
    _common_flags(sc)
    sc.set_defaults(handler=cmd_secants)

    vm = sub.add_parser("verify-main", help="spot-check the ranked-count equalities")
    vm.add_argument("--m-max", dest="m_max", type=int, default=3)
    _common_flags(vm)
    vm.set_defaults(handler=cmd_verify_main)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except varieties.ConstructionError as err:
        # covers FieldTooSmallError from the counts as well as construction
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
