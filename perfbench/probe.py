"""Set-up probe: time `import flmgof` plus the program's first-use work.

Run in a fresh interpreter by run.py; numpy is not imported before the clock
starts, because importing flmgof pays for it. Usage:

    python3 perfbench/probe.py '<json spec>'

with spec {"src": dir, "argv": [...]} for a first `flmgof test` call, or
{"src": dir, "study": {...}} for the simulate warm-up: both scenarios' noise
variance and one trial per cell. Prints {"setup_s": seconds, "code": exit code}.
"""

import json
import sys
import time


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    started = time.perf_counter()
    import flmgof
    import flmgof.cli

    if "argv" in spec:
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()):
            code = flmgof.cli.main(spec["argv"])
    else:
        study = spec["study"]
        for index in study["scenarios"]:
            flmgof.scenario(index).sigma2
        flmgof.run_study(
            scenarios=study["scenarios"],
            d_values=study["d_values"],
            n_values=[study["n"]],
            M=1,
            K=study["K"],
            B=study["B"],
            seed=study["seed"],
            threads=1,
        )
        code = 0
    print(json.dumps({"setup_s": time.perf_counter() - started, "code": code}))


if __name__ == "__main__":
    main()
