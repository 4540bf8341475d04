"""Exact answer checks: program output -> canonical answer -> compare.

Both output formats of a command reduce to the same canonical answer, so a
difference in formatting alone is never a failure.  Bulky fields (link
f-vectors, coefficient tables, generator lists, weights, certificates) are
kept as digests of their exact content.

The expected answer of a command comes from one of three places:

* ``expected.json``, recorded by ``record_expected.py``, for every answer
  that depends only on the complex (the complexes are fixed);
* the dividend form of the seeded game, for Shapley values on a simplex;
* the recorded coefficients a_T and the seeded game, for the efficiency
  identity: sum_i phi_i(v) and sum_T a_T v(T) must both equal the exact
  sum_T a_T v(T), with residual 0.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from corpus import Corpus, Spec, mask_key, vertex_count


class AnswerError(ValueError):
    """The output does not parse as an answer of the expected shape."""


def digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def expected_key(spec: Spec) -> str:
    return " ".join([spec.cmd, spec.cid] + ([f"p{spec.player}"] if spec.player else []))


def _tuple(text: str) -> list[str]:
    """'(1, 2/3)' -> ['1', '2/3']."""
    if not (text.startswith("(") and text.endswith(")")):
        raise AnswerError(f"not a tuple: {text!r}")
    inner = text[1:-1]
    return inner.split(", ") if inner else []


def _ints(text: str) -> list[int]:
    return [int(x) for x in _tuple(text)]


def _face_key(text: str) -> str:
    """'{1,2,3}' -> '1,2,3'."""
    return text.strip("{}")


def _key(vertices: list[int]) -> str:
    """[1, 2, 3] -> '1,2,3'."""
    return ",".join(map(str, vertices))


def _after(lines: list[str], prefix: str) -> str | None:
    return next((ln[len(prefix):] for ln in lines if ln.startswith(prefix)), None)


# -- canonical answers, one function per command --------------------------


def _info(fmt: str, out: str) -> dict:
    if fmt == "json":
        doc = json.loads(out)
        cls = doc["shapley"]
        return {
            "f_vector": doc["f_vector"],
            "link_f_vectors": digest([[int(k), v] for k, v in doc["link_f_vectors"].items()]),
            "pure_links": doc["pure_links"],
            "is_shapley": cls["is_shapley"],
            "s_vector": cls["s_vector"],
            "witness": cls["witness"],
        }
    lines = out.splitlines()
    links = []
    for ln in lines:
        m = re.fullmatch(r"  vertex (\d+): (\(.*\))", ln)
        if m:
            links.append([int(m[1]), _ints(m[2])])
    shapley = _after(lines, "shapley complex: ")
    m = re.fullmatch(r"no \(witness: vertices (\d+) and (\d+)\)", shapley or "")
    return {
        "f_vector": _ints(_after(lines, "f-vector: ") or ""),
        "link_f_vectors": digest(links),
        "pure_links": _after(lines, "pure links: ") == "yes",
        "is_shapley": shapley.startswith("yes"),
        "s_vector": _ints(shapley[len("yes, s = "):]) if shapley.startswith("yes") else None,
        "witness": [int(m[1]), int(m[2])] if m else None,
    }


def _psystem(fmt: str, out: str) -> dict:
    if fmt == "json":
        doc = json.loads(out)
        return {
            "rows": doc["rows"],
            "status": doc["status"],
            "particular": doc["particular"],
            "nullspace": doc["nullspace"],
            "canonical": doc["canonical"],
            "canonical_satisfies": doc["canonical_satisfies"],
        }
    lines = out.splitlines()
    rows = [_ints(m[1]) for ln in lines if (m := re.fullmatch(r"  (\(.*\))  \(vertex \d+\)", ln))]
    particular = _after(lines, "particular (free variables zeroed): ")
    canonical = _after(lines, "canonical p_k = 1/(r*s_k): ")
    canon_tuple, satisfies = (None, None)
    if canonical is not None:
        text, verdict = canonical.split("  satisfies system: ")
        canon_tuple, satisfies = _tuple(text), verdict == "yes"
    return {
        "rows": rows,
        "status": _after(lines, "status: "),
        "particular": _tuple(particular) if particular is not None else None,
        "nullspace": [_tuple(ln[len("nullspace: "):]) for ln in lines if ln.startswith("nullspace: ")],
        "canonical": canon_tuple,
        "canonical_satisfies": satisfies,
    }


def _efficiency(fmt: str, out: str) -> dict:
    """Coefficients stay as a list too: the identity check needs them."""
    if fmt == "json":
        doc = json.loads(out)
        coeffs = [[k, v] for k, v in doc["coefficients"].items()]
        matches = doc["closed_form_matches"]
        ident = doc["identity"]
        identity = ident and [ident["lhs"], ident["rhs"], ident["residual"]]
    else:
        lines = out.splitlines()
        coeffs = [
            [_face_key(m[1]), m[2]]
            for ln in lines
            if (m := re.fullmatch(r"  (\{[\d,]*\}): (\S+)  \S+", ln))
        ]
        verdict = _after(lines, "closed form matches construction: ")
        matches = None if verdict is None else verdict == "yes"
        ident = _after(lines, "identity: ")
        m = re.fullmatch(r"sum phi = (\S+), sum a_T v\(T\) = (\S+), residual = (\S+)", ident or "")
        identity = [m[1], m[2], m[3]] if m else None
    return {
        "coefficients": digest(coeffs),
        "closed_form_matches": matches,
        "identity": identity,
        "_coefficients": coeffs,
    }


def _decompose(fmt: str, out: str) -> dict:
    if fmt == "json":
        doc = json.loads(out)
        player, status = doc["player"], doc["status"]
        weights = doc["weights"] and [[k, v] for k, v in doc["weights"].items()]
        cert = doc["certificate"] and [x for x in doc["certificate"] if x != "0"]
    else:
        lines = out.splitlines()
        player, status = int(_after(lines, "player: ")), _after(lines, "status: ")
        weights = [
            [m[1], m[2]] for ln in lines if (m := re.fullmatch(r"  c_\{([\d,]*)\} = (\S+)  \S+", ln))
        ] or None
        cert = [m[1] for ln in lines if (m := re.fullmatch(r"  (\S+) \* row\[\{[\d,]*\}\]", ln))] or None
    return {
        "player": player,
        "status": status,
        "weights": weights and digest(weights),
        "certificate": cert and digest(cert),
    }


def _cycles(images: list[int]) -> str:
    """Cycle notation as the table prints it: '(1 2)(3 5 4)', or 'id'."""
    seen, cycles = set(), []
    for v in range(1, len(images) + 1):
        cycle = [v]
        seen.add(v)
        while images[cycle[-1] - 1] not in seen:
            cycle.append(images[cycle[-1] - 1])
            seen.add(cycle[-1])
        if len(cycle) > 1:
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) or "id"


def _symmetry(fmt: str, out: str) -> dict:
    if fmt == "json":
        doc = json.loads(out)
        order = doc["symm_order"]
        gens = [[_cycles(g["perm"]), g["moved_face"] and _key(g["moved_face"])]
                for g in doc["generators"]]
        contained = doc["pi_delta_contained"]
        w = doc["witness"]
        witness = w and [_cycles(w["perm"]), _key(w["face"])]
    else:
        lines = out.splitlines()
        order_text = _after(lines, "symmetry group order: ")
        order = None if order_text.startswith("skipped") else int(order_text)
        gens = [
            [m[1], m[3]]
            for ln in lines
            if (m := re.fullmatch(r"  (\(.+\)|id): (preserves|moves \{([\d,]*)\} outside)", ln))
        ]
        if int(_after(lines, "generated-subgroup generators: ")) != len(gens):
            raise AnswerError("generator count does not match the generator lines")
        verdict = _after(lines, "pi(Delta) contained in Symm(Delta): ")
        contained = verdict == "yes"
        m = re.fullmatch(r"no \(witness (.+) on \{([\d,]*)\}\)", verdict)
        witness = [m[1], m[2]] if m else None
    return {
        "symm_order": order,
        "generator_count": len(gens),
        "generators": digest(gens),
        "contained": contained,
        "witness": witness,
    }


def _shapley(fmt: str, out: str) -> dict:
    doc = json.loads(out)
    return {
        "values": doc["values"],
        "aggregate": doc["aggregate"],
        "efficiency_match": doc["efficiency_match"],
    }


def _verify(fmt: str, out: str) -> dict:
    if fmt == "json":
        doc = json.loads(out)
        return {"ok": doc["ok"], "checks": len(doc["checks"]) + len(doc["efficiency_identity"])}
    lines = out.splitlines()
    return {"ok": lines[-1] == "verdict: all checks passed", "checks": len(lines) - 1}


CANONICAL = {
    "info": _info,
    "psystem": _psystem,
    "efficiency": _efficiency,
    "decompose": _decompose,
    "symmetry": _symmetry,
    "shapley": _shapley,
    "verify": _verify,
}


def canonical(spec: Spec, out: str) -> dict:
    try:
        return CANONICAL[spec.cmd](spec.fmt, out)
    except (KeyError, TypeError, AttributeError, ValueError, IndexError) as e:
        raise AnswerError(f"{spec.cmd} output does not parse: {e!r}") from None


def stored_part(answer: dict) -> dict:
    """The part of an answer that depends only on the complex."""
    if "_coefficients" in answer:
        return {"coefficients": answer["coefficients"],
                "closed_form_matches": answer["closed_form_matches"]}
    return answer


# -- expected answers --------------------------------------------------------


def check(spec: Spec, exit_code: int, out: str, corpus: Corpus, stored: dict) -> str | None:
    """None when the command's exit code and answer are exactly right, else why not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        got = canonical(spec, out)
    except AnswerError as e:
        return str(e)
    if spec.cmd == "shapley":
        phi = corpus.games[(spec.cid, spec.game)].shapley_on_simplex()
        want = {
            "values": {str(i): str(v) for i, v in phi.items()},
            "aggregate": str(sum(phi.values(), Fraction(0))),
            "efficiency_match": True,
        }
    elif spec.cmd == "verify":
        want = {"ok": True, "checks": 4 * vertex_count(corpus.docs[spec.cid]) + 10}
    else:
        want = stored.get(expected_key(spec))
        if want is None:
            return f"no stored answer for {expected_key(spec)!r}"
        if spec.cmd == "efficiency":
            identity = _expected_identity(got["_coefficients"], corpus, spec) if spec.game else None
            if got["identity"] != identity:
                return "efficiency identity differs"
            got = stored_part(got)
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"answer differs in {diff}"
    return None


def _expected_identity(coeffs: list, corpus: Corpus, spec: Spec) -> list[str]:
    worth = {mask_key(m): w for m, w in corpus.games[(spec.cid, spec.game)].worth.items()}
    total = sum((Fraction(a) * worth[k] for k, a in coeffs), Fraction(0))
    return [str(total), str(total), "0"]
