#!/usr/bin/env bash
# One form per operation: a source file may not define both `fn try_X` and
# `fn X`, and nothing may unwrap a typed error into a panic with
# `unwrap_or_else(|e| panic!("{e}"))`. The two exceptions are listed with
# their reason in ROADMAP.md ("Collapse the design").
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

allow='crates/ckks/src/eval.rs:mul_plain crates/ckks/src/context.rs:new'
status=0

while IFS= read -r file; do
    names=$(grep -oE '\bfn [A-Za-z_][A-Za-z0-9_]*' "$file" | cut -d' ' -f2 | sort -u || true)
    for name in $(grep -E '^try_' <<<"$names" || true); do
        plain=${name#try_}
        if grep -qx "$plain" <<<"$names" && [[ " $allow " != *" $file:$plain "* ]]; then
            echo "$file: defines both \`fn $name\` and \`fn $plain\`"
            status=1
        fi
    done
done < <(find crates/*/src -name '*.rs' | sort)

while IFS= read -r file; do
    if [[ " $allow" != *" $file:"* ]]; then
        echo "$file: unwraps a typed error into a panic; return the Result"
        status=1
    fi
done < <(grep -rlF 'unwrap_or_else(|e| panic!("{e}"))' --include='*.rs' crates src examples tests || true)

exit $status
