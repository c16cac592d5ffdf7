"""Run one CLI command and check its exit code, peak RSS and --out file against a pin.

    PYTHONPATH=src python tests/certify_gate.py CEILING_MB COMMAND... --out FILE

Exits 1 unless the command exits 0, the peak RSS of this process stays at
most CEILING_MB, and FILE matches its pin: for `verify`, every report of
the range, which TheoremReport.from_json_dict must accept (its keys and its
content_hash), and whose body must match BODIES, with each line that is not
a JSON object with an integer m named by its number; for any other command, the
SHA-256 of the whole file against OUTPUTS, keyed by the command without --out.

CI's certify job runs the gate lines for m = 2..10 on every push; m = 11
(about 15.5 minutes and 1.4 GB) runs in the certify-m11 workflow, weekly
and on demand:

    PYTHONPATH=src python tests/certify_gate.py 1850 verify --m 11 --out certify-m11.jsonl
"""

import hashlib
import json
import resource
import sys
import time

from convexblockers import TheoremReport, cli

# body_digest of each report: its mathematical content.
BODIES = {
    2: "8b2027d999f2a298140b7ed74623627ab59c06a45a72ad198f86d1823c900ea5",
    3: "a2074d5b88d8ee7d7d58289610c5a32dfaf571d14935d839cbbb46ec967de0b2",
    4: "599051b3de5f4c4aa577649a8abf9b83158b45c5bdb65078b00fd37906c15010",
    5: "3c13e08bd7c7f67e54d8483d4c771d1d768bcdf5aced69062c752476e8cc470b",
    6: "1c8812e8f3647b1c755640a6941617a0f3cef128ece8b780008206fd05f5c572",
    7: "fa2ebb4654e05dacfce38c57b9b343c0782cfa54813d1e72b07470dc4a1da3ae",
    8: "a5078f1979ba1b827557b0d73d04eaf8d20a2afc2b4f0afad4b744f4c478333d",
    9: "ac21704c9fc1fd89d96fec6667d0012f38158e4a571f7e98507811dae9c895cf",
    10: "3d54ed10ca6f17432e630ea98bb4a069a8553a1cf4848581c52252ef6b50347e",
    11: "b850cf4e6c969201d171ae00e1320d2bbcbe44a0aebdef04c3eb2ca77fe9ae1f",
}

OUTPUTS = {
    "enumerate --m 9 --family shp": "b8520ac07d9e1d5676692d3f55577ec0399e53db795d4e794592c5985c5cf783",
    "enumerate --m 12 --family spm": "6ece352af6945291bc55d0c4e0f7d32799f7737e05dd45d5b9de0e2f5ea2ada2",
    "blockers formula --m 8": "1c28ab7857fdd346be88d574c2ce5305e6b5e6d154ea73b242d802c0c0ffa2ec",
    "blockers exact --m 12 --family spm": "28c7570c0b8ddaf29c0b0b45c3dfd8dfab34ee8ac4d27dfb633ed81203ee3d43",
    "render --m 6 --background dotted --layer 0-1,1-2,1-10,2-3,2-5,2-7:bold --path 1,2,0,11,3,10,4,9,5,8,6,7:punctured --angles": "a033164e9f3b1ffa4d2604fd16803fed755cbbd78052336167393548c7c29705",
}


def body_digest(report: dict) -> str:
    """SHA-256 of a report's canonical JSON without content_hash and solver.*.nodes.

    A sound change to the search may alter the node counts, and the hash with them.
    """
    body = {k: v for k, v in report.items() if k != "content_hash"}
    body["solver"] = {f: {k: v for k, v in d.items() if k != "nodes"} for f, d in body["solver"].items()}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def mismatches(command: list[str], path: str) -> list[str]:
    """Each way the file a command wrote differs from its pin; empty when it matches."""
    if command[0] == "verify":
        m_from = int(command[command.index("--m") + 1])
        m_to = int(command[command.index("--to") + 1]) if "--to" in command else m_from
        got, bad = {}, []
        with open(path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                try:
                    report = json.loads(line)
                except ValueError as exc:
                    bad.append(f"line {number}: not JSON ({exc})")
                    continue
                if not isinstance(report, dict) or type(report.get("m")) is not int:
                    bad.append(f"line {number}: not a JSON object with an integer m")
                    continue
                try:
                    TheoremReport.from_json_dict(report)
                except ValueError as exc:
                    got[report["m"]] = f"rejected ({exc})"
                else:
                    got[report["m"]] = body_digest(report)
        want = {m: BODIES.get(m, "no pin") for m in range(m_from, m_to + 1)}
        wrong = sorted(m for m in got | want if got.get(m) != want.get(m))
        return bad + [f"m={m}: report body {got.get(m)}, pinned {want.get(m)}" for m in wrong]
    key = " ".join(command)
    if key not in OUTPUTS:
        return [f"no pinned output for {key!r}"]
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    return [] if sha.hexdigest() == OUTPUTS[key] else [f"SHA-256 {sha.hexdigest()}, pinned {OUTPUTS[key]}"]


def main(argv: list[str]) -> int:
    ceiling_mb, args = float(argv[0]), argv[1:]
    out = args.index("--out")
    started = time.perf_counter()
    code = cli.main(args)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
    elapsed = time.perf_counter() - started
    print(f"{' '.join(args)}: exit code {code}, {elapsed:.1f} s, peak RSS {peak_mb:.0f} MB (ceiling {ceiling_mb:g})")
    if code != 0:
        return 1
    wrong = mismatches(args[:out] + args[out + 2 :], args[out + 1])
    print("\n".join(wrong) or "output matches its pin")
    return 1 if peak_mb > ceiling_mb or wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
