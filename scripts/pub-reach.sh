#!/usr/bin/env bash
# A public surface the size of what is used. Every `pub` fn, struct, enum,
# trait, type, const or static under crates/*/src, outside `#[cfg(test)]`,
# is either reached (its name is a word in the non-test code of another
# file under crates/*/src, src, perf/src or examples, not counting `pub use`
# re-exports or the name a definition gives) or has a line
# `path:name reason` in scripts/pub-reach.allow. A reason is one of
# `user API`, `test hook`, `oracle`, `signature` or `ROADMAP <item>`, and
# at most ten lines may give a ROADMAP item. An allow-list line whose item
# is gone or now reached is stale and fails too, so the list only shrinks.
# The last line printed counts the `pub` items, the allow-list lines by
# reason and the non-test lines under crates/*/src (each file up to its
# first `#[cfg(test)]`).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

mapfile -t sources < <(find crates/*/src src perf/src examples -name '*.rs' | sort)
awk -v allow_file=scripts/pub-reach.allow '
# Drop a `//` comment: a whole-line one, or a trailing one outside a string.
function code(s,    i, at, pre) {
    if (s ~ /^[ \t]*\/\//) return ""
    at = 0
    while ((i = index(substr(s, at + 1), "//")) > 0) {
        at += i
        pre = substr(s, 1, at - 1)
        if (gsub(/"/, "\"", pre) % 2 == 0) return substr(s, 1, at - 1)
        at++
    }
    return s
}
BEGIN {
    while ((getline line < allow_file) > 0) {
        if (line ~ /^[ \t]*(#|$)/) continue
        key = line; sub(/ .*/, "", key)
        reason = line; sub(/^[^ ]* */, "", reason)
        if (reason !~ /^(user API|test hook|oracle|signature|ROADMAP [0-9]+(\([a-z]+\))?)$/) {
            print allow_file ": " key ": reason \"" reason "\" is not one of: user API, test hook, oracle, signature, ROADMAP <item>"
            bad = 1
        }
        allowed[key] = reason
    }
}
FNR == 1 { skip = 0; reexport = 0; before_tests = 1; lib = (FILENAME ~ /^crates\/[^\/]+\/src\//) }
/^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; before_tests = 0; next }
{
    if (lib && before_tests) lines++
    s = code($0)
    if (skip) {
        t = s
        gsub(/"([^"\\]|\\.)*"/, "", t); gsub(/\047.\047/, "", t)
        o = gsub(/\{/, "", t); c = gsub(/\}/, "", t)
        depth += o - c
        if (o > 0) opened = 1
        if ((opened && depth <= 0) || (!opened && s ~ /;[ \t]*$/)) skip = 0
        next
    }
    if (lib && match(s, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|trait|type|const|static)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
        item = substr(s, RSTART, RLENGTH)
        name = item; sub(/.*[ \t]/, "", name)
        kind = item; sub(/[ \t]+[A-Za-z0-9_]*$/, "", kind); sub(/.*[ \t]/, "", kind)
        if (!((FILENAME, name) in defined)) {
            defined[FILENAME, name] = kind
            items[++n] = FILENAME SUBSEP name
        }
    }
    # A `pub use` re-export names an item without using it.
    if (reexport || s ~ /^[ \t]*pub(\([^)]*\))?[ \t]+use[ \t]/) { reexport = (s !~ /;/); next }
    prev = ""
    while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
        w = substr(s, RSTART, RLENGTH)
        gap = substr(s, 1, RSTART - 1)
        # The name a definition gives (`fn w`, `struct w`, ...) is no use of it.
        if (!(prev ~ /^(fn|struct|enum|trait|type|const|static|mod)$/ && gap ~ /^[ \t]+$/) && !((FILENAME, w) in has)) {
            has[FILENAME, w] = 1; files_with[w]++
        }
        prev = gap ~ /\047$/ ? "" : w
        s = substr(s, RSTART + RLENGTH)
    }
}
END {
    for (i = 1; i <= n; i++) {
        split(items[i], parts, SUBSEP); f = parts[1]; name = parts[2]
        key = f ":" name
        reached = files_with[name] - ((f, name) in has) > 0
        if (reached && key in allowed) {
            print key ": reached outside its file; delete its line from " allow_file
            bad = 1
        } else if (!reached && !(key in allowed)) {
            print key ": `pub " defined[f, name] " " name "` is reached by no non-test code outside its file; make it pub(crate) or private, delete it, or allow-list it with a reason"
            bad = 1
        }
        seen[key] = 1
    }
    for (key in allowed) {
        if (!(key in seen)) { print allow_file ": " key ": no such pub item; delete the line"; bad = 1 }
        by_reason[allowed[key] ~ /^ROADMAP/ ? "ROADMAP" : allowed[key]]++
    }
    if (by_reason["ROADMAP"] > 10) {
        print allow_file ": " by_reason["ROADMAP"] " lines give a ROADMAP item as their reason; at most 10 may"
        bad = 1
    }
    split("user API,test hook,oracle,signature,ROADMAP", order, ",")
    summary = "pub-reach: " n " pub items; allow-list"
    for (i = 1; i <= 5; i++) summary = summary (i > 1 ? ", " : " ") order[i] " " by_reason[order[i]] + 0
    print summary "; " lines " non-test lines in crates/*/src"
    exit bad
}' "${sources[@]}"
