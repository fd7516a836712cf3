#!/usr/bin/env bash
# The documents describe the tree as it is. Fails when README.md, DESIGN.md
# or EXPERIMENTS.md
#   - name a repository path that exists neither at the root nor under any
#     `crates/*/` (a path is a token with a `/` that ends in a file
#     extension or starts with a top-level directory; `*` globs and `{a,b}`
#     sets are expanded, `<placeholder>` tokens are skipped);
#   - name a `tables` selector that `crates/bench/src/main.rs` does not
#     accept (written as `` `tables X` `` or `--bin tables X`);
#   - mention `cargo bench`, a `BENCH_*.json` file or `--features`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md)
status=0

found=$(grep -nE 'cargo bench|BENCH_[A-Za-z0-9_*]*\.json|--features' "${docs[@]}" || true)
if [ -n "$found" ]; then
    echo "$found"
    echo "doc-refs: a document names a retired measurement command or file"
    status=1
fi

python3 - "${docs[@]}" <<'EOF' || status=1
import glob, itertools, os, re, sys

selectors = set(re.findall(r'run\("([a-z0-9_]+)"', open("crates/bench/src/main.rs").read()))
selectors |= set(re.findall(r'which == "([a-z0-9_]+)"', open("crates/bench/src/main.rs").read()))

tops = ("crates/", "src/", "tests/", "examples/", "programs/", "scripts/",
        "shims/", "perf/", ".github/")
exts = (".rs", ".md", ".sh", ".pos", ".toml", ".json", ".yml", ".lock")

def expand(token):
    parts = re.split(r"\{([^{}]*)\}", token)
    fixed, choices = parts[0::2], [p.split(",") for p in parts[1::2]]
    for pick in itertools.product(*choices):
        yield "".join(f + c for f, c in zip(fixed, pick + ("",)))

def exists(path):
    path = path.rstrip("/")
    return any(glob.glob(os.path.join(base, path)) for base in ["."] + glob.glob("crates/*"))

bad = []
for doc in sys.argv[1:]:
    for lineno, line in enumerate(open(doc, encoding="utf-8"), 1):
        for m in re.finditer(r"(?:`tables|--bin tables(?: --)?) +([A-Za-z0-9_.-]+)", line):
            if m.group(1) not in selectors:
                bad.append(f"{doc}:{lineno}: unknown `tables` selector `{m.group(1)}`")
        for raw in re.split(r"[\s`|]+", line):
            token = re.sub(r"(::.*|(:\d+)+)$", "", raw.lstrip("(['\"*").rstrip(")],;:.'\"*"))
            if "/" not in token or "://" in token or "<" in token or ">" in token:
                continue
            if not (token.endswith(exts) or token.startswith(tops)):
                continue
            for path in expand(token):
                if not exists(path):
                    bad.append(f"{doc}:{lineno}: no such path `{path}`")
for line in bad:
    print(line)
if bad:
    print("doc-refs: a document names something the tree does not have")
    sys.exit(1)
EOF

exit $status
