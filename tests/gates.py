"""Checks that run the installed ``probcert`` command or read a whole process's
peak memory, one function per gate.  CI runs each gate as its own step.

    python tests/gates.py          # every gate
    python tests/gates.py NAME     # one gate

``probcert`` must be on PATH and importable, for instance after
``pip install -e . --no-build-isolation``.  The gates run in a temporary
directory, which holds every file they write.  A bound on peak RSS is read
from a fresh process that runs only the measured command, so no gate reads
this process's own usage or that of the children it ran before.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

# hashlib, statistics and subprocess are imported by the gates that use them:
# certify runs in a measured process that imports this module, and these
# three add about 1 MiB to its peak RSS.

ROOT = Path(__file__).resolve().parents[1]
TARGETS = (
    "import numpy._core._multiarray_umath as m; print('dispatch targets', m.__cpu_dispatch__,"
    " 'enabled', [t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)])"
)
# one command in a fresh process, then that command's peak RSS in KiB (Linux) as the last line
PEAK = (
    "import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True);"
    " print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)
CLI = (sys.executable, "-W", "error::RuntimeWarning", "-m", "probcert.cli")  # numpy's warnings as errors
NO_AVX512 = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def run(*argv, code=0, **kwargs):
    """stdout of a command that must exit with ``code``; a failing command prints
    one ``error:`` line first and no traceback."""
    import subprocess

    done = subprocess.run(argv, capture_output=True, text=True, **kwargs)
    sys.stderr.write(done.stderr)
    assert done.returncode == code, f"exit {done.returncode}, want {code}: {argv}"
    if code:
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    return done.stdout


def peak(*argv, **kwargs):
    """stdout and peak RSS in MiB of one command, run alone in a fresh process."""
    *out, kib = run(sys.executable, "-c", PEAK, *argv, **kwargs).splitlines()
    return "\n".join(out), int(kib) / 1024


def write_samples(path, lines):
    """``lines`` seeded uniform doubles, one per line, as Python prints them."""
    r = random.Random(7)
    Path(path).write_text("".join(f"{r.random()!r}\n" for _ in range(lines)))


def console_script():
    """The installed entry point runs, and maps errors to exit codes 1 and 2.  The
    plan text prints its achieved risk in full, which must read below delta; its
    last digits are not pinned, as log1p may differ across libms."""
    run("probcert", "plan", "--eps-a", "0.05", "--eps-r", "0.2", "--delta", "0.05", "--json")
    run("probcert", "verify", "--suite", "lemmas")
    text = run("probcert", "plan", "--eps-a", "2e-4", "--eps-r", "0.02", "--delta", "1e-6")
    risk = float(text.split("achieved risk =")[1])
    print(text, risk, sep="")
    assert risk < 1e-6
    run("probcert", "plan", "--eps-a", "0.6", "--eps-r", "0.2", "--delta", "0.05", code=1)
    run("probcert", "estimate", "--input", "missing.txt", "--eps-a", "0.05", "--eps-r", "0.2", code=2)


def identity():
    """Each command prints the same bytes in two runs, on one CPU (where the
    coverage suite counts every mean on the calling thread), and with numpy's
    AVX-512 paths off, as README.md states.  A CPU without AVX-512 compares one
    path with itself, so the dispatch targets are printed.  At n = 282,977 no two
    coverage trials share a block: each is counted from its byte lanes."""
    import hashlib

    write_samples("fixed.txt", 100_000)
    commands = [
        ("verify", "--suite", "all", "--seed", "11", "--json"),
        ("verify", "--suite", "coverage", "--eps-a", "2e-3", "--eps-r", "0.05", "--delta", "1e-6",
         "--trials", "20", "--seed", "11", "--json"),
        ("plan", "--eps-a", "0.05", "--eps-r", "0.2", "--delta", "0.05", "--json"),
        ("estimate", "--input", "fixed.txt", "--eps-a", "0.05", "--eps-r", "0.2", "--json"),
    ]
    print(run(sys.executable, "-c", TARGETS), run(sys.executable, "-c", TARGETS, env=NO_AVX512), sep="", end="")
    for args in commands:
        outputs = [
            run("probcert", *args),
            run("probcert", *args),
            run("taskset", "-c", "0", "probcert", *args),
            run("probcert", *args, env=NO_AVX512),
        ]
        print(hashlib.sha256(outputs[0].encode()).hexdigest(), *args)
        assert len(set(outputs)) == 1, f"outputs differ: {args}"


def domination_plan_size():
    """The domination suite at a plan size, n = 7,229,021 at (2e-4, 0.02, 1e-6):
    each point's fresh failure rate is certified in 442 blocks of at most 16,384
    rows, and its kernel check and moment read Y in blocks of as many values, so
    only the frozen scenarios and one point's Y grow with n; a point's Y is
    released before the next point's model call.  It must pass with numpy's
    floating-point warnings as errors, and peak below 180 MiB RSS (146 MiB on a
    2-core runner with Python 3.11 and numpy 2.4; 215 MiB with an n-length kernel
    and weight array per point)."""
    out, mib = peak(*CLI, "verify", "--suite", "domination", "--points", "3", "--eps-a", "2e-4",
                    "--eps-r", "0.02", "--delta", "1e-6", "--seed", "11", "--json")
    print(out)
    print(f"peak RSS {mib:.0f} MiB")
    assert json.loads(out)["passed"] is True
    assert mib < 180


def verify_wall_time():
    """The full suite in-process, as the verify_all benchmark workload calls it:
    each of 20 calls must pass.  The median wall time is printed, with those of
    the lemma checks and of the exact-tail checks alone."""
    import statistics

    from probcert import cli

    for suite in ("all", "lemmas", "lemma56"):
        times = []
        for _ in range(20):
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", "--suite", suite, "--json"])
            times.append(time.perf_counter() - start)
            assert code == 0 and json.loads(out.getvalue())["passed"] is True
        print(f"verify --suite {suite}: median {1e3 * statistics.median(times):.1f} ms over {len(times)} calls")


def benchmark_outputs():
    """The output checks of each listed benchmark workload, and of the descent's
    (convergence, |theta*| <= 0.15, a non-increasing trace and the certificate):
    analytic truth and a bit-identical same-seed rerun.  The last line of a run
    is its JSON."""
    for workload in ("certify_large", "verify_all", "optimize"):
        out = run(sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                  "--seed", "1", "--seconds", "5", "--max-jobs", "3")
        print(out, end="")
        assert json.loads(out.splitlines()[-1])["correct"] is True


# spec, n, mu_hat and the true mean of each plan-sized certificate
CERTIFICATES = {
    "bernoulli": ((1e-5, 0.01, 1e-9), 429_322_469, 0.29996685545009294, 0.3),
    "float": ((2e-4, 0.02, 1e-6), 7_229_021, 0.5000237373199659, 0.5),
}


def certify(case):
    """Print one plan-sized certificate of ``CERTIFICATES`` as JSON."""
    import numpy as np
    import probcert as pc

    class Uniform(pc.SampleSource):
        """Doubles made from raw PCG64 words, which NEP 19 keeps fixed."""

        def __init__(self):
            super().__init__()
            self._words = np.random.PCG64(5)

        def _generate(self, k):
            return (self._words.random_raw(k) >> 11) * 2.0**-53

    source = pc.BernoulliSource(0.3, seed=5) if case == "bernoulli" else Uniform()
    start = time.perf_counter()
    cert = pc.estimate_with_plan(source, pc.validate_spec(*CERTIFICATES[case][0]))
    wall = time.perf_counter() - start
    print(json.dumps({"n": cert.n, "draws_made": source.draws_made, "mu_hat": cert.mu_hat, "wall": wall}))


def plan_sized_certificates():
    """Certificates at plan sizes, each drawn and reduced in fixed-size blocks and
    never materialised, meet the mixed criterion in < 64 MiB.  The north star's
    n = 429,322,469 Bernoulli draws (3.4 GB as float64) are counted from their
    byte lanes in 3,276 blocks of 131,072 that lose and repeat no draw.  The
    float source's n = 7,229,021 values are reduced in 442 blocks of at most
    16,384, each checked into [0, 1] once.  mu_hat pins the stream and the
    exact count or sum: a count that took a word or a tie out of order would
    move it."""
    for case, ((eps_a, eps_r, _), n, mu_hat, mu) in CERTIFICATES.items():
        out, mib = peak(sys.executable, "-c", f"import gates; gates.certify({case!r})", cwd=ROOT / "tests")
        cert = json.loads(out)
        print(f"{case}: n={cert['n']} mu_hat={cert['mu_hat']!r} in {cert['wall']:.2f} s, peak RSS {mib:.1f} MiB")
        error = abs(cert["mu_hat"] - mu)
        assert cert["n"] == n
        assert cert["draws_made"] == n
        assert cert["mu_hat"] == mu_hat
        assert error < eps_a or error < eps_r * mu
        assert mib < 64


def estimate_memory():
    """``estimate`` reads its file once, 16,384 nonblank lines at a time, so its
    memory does not grow with the file: a 2e6-line file (38 MB of text) must peak
    within 16 MiB of the resident memory of a ``plan`` run.  A pipe is read into
    memory first, to be read again on an error, and must certify the same."""
    write_samples("big.txt", 2_000_000)
    pair = ("--eps-a", "0.05", "--eps-r", "0.2")
    _, plan = peak("probcert", "plan", *pair, "--delta", "0.05")
    _, estimate = peak("probcert", "estimate", "--input", "big.txt", *pair)
    plan, estimate = int(plan), int(estimate)  # whole MiB
    print(f"peak RSS: plan {plan} MiB, estimate of 2e6 lines {estimate} MiB")
    assert estimate <= plan + 16
    from_file = run("probcert", "estimate", "--input", "big.txt", *pair, "--json")
    from_pipe = run("probcert", "estimate", "--input", "/dev/stdin", *pair, "--json", input=Path("big.txt").read_text())
    assert from_pipe == from_file


def optimize_readme():
    """The run configuration of README.md through the installed entry point; with
    numpy's floating-point warnings as errors it must converge and certify within
    its risk bound."""
    readme = (ROOT / "README.md").read_text()
    Path("run.json").write_text(readme.split("### Optimize run configuration")[1].split("```json\n")[1].split("```")[0])
    print(run("probcert", "optimize", "--config", "run.json"), end="")
    out = json.loads(run(*CLI, "optimize", "--config", "run.json", "--json"))["outcome"]
    cert = out["certificate"]
    print(out["termination"], out["iterations"], cert["n"], cert["delta_achieved"])
    assert out["termination"] == "gradient_tol"
    assert cert["n"] == 577 and cert["delta_achieved"] < 0.05


def source_size():
    """Print-only: the source's line counts and the number of public names, so
    that the aim of fewer source lines over a round shows on every run."""
    import probcert

    files = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "src" / "probcert").glob("*.py"))
    print(run("wc", "-l", *files, cwd=ROOT), len(probcert.__all__), " public names", sep="")


GATES = {
    gate.__name__: gate
    for gate in (console_script, identity, domination_plan_size, verify_wall_time, benchmark_outputs,
                 plan_sized_certificates, estimate_memory, optimize_readme, source_size)
}


def main(names):
    if len(names) > 1 or not set(names) <= GATES.keys():
        sys.exit(f"usage: python tests/gates.py [{' | '.join(GATES)}]")
    sys.stdout.reconfigure(line_buffering=True)
    total = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for name in names or GATES:
            start = time.perf_counter()
            print(f"== {name}")
            GATES[name]()
            print(f"== {name} passed in {time.perf_counter() - start:.1f} s")
    print(f"== {len(names or GATES)} gates passed in {time.perf_counter() - total:.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
