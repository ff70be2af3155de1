#!/usr/bin/env bash
# Documentation lint, run by the CI docs job and locally:
#   1. every relative markdown link in README.md and docs/*.md must
#      resolve to an existing file (anchors are stripped first);
#   2. every public header in src/serve/, src/ctrl/, src/obs/,
#      src/fault/ and src/difftest/ must carry a file-level Doxygen
#      `@file` comment;
#   3. every backticked source path in README.md and docs/*.md must
#      exist, resolved from the repo root or from src/. A token counts
#      as a path when it has a directory part, ends in a file
#      extension, and starts with a top-level directory or a src/
#      subdirectory (`core/stats.hh`, `perfbench/run.py`); a
#      `name.{hh,cc}` suffix is checked for each alternative;
#   4. every backticked `Type::member` reference in README.md and
#      docs/*.md must resolve: some file under src/ defines `Type`
#      (struct, class or enum), and `member` appears as a word in a
#      file that defines it. References into `std::` or `laer::` are
#      skipped.
set -u
cd "$(dirname "$0")/.."

status=0

check_links() {
    local md="$1"
    local dir
    dir=$(dirname "$md")
    # Inline markdown links: [text](target)
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        local path="${target%%#*}"
        [ -z "$path" ] && continue
        if [ ! -e "$dir/$path" ]; then
            echo "BROKEN LINK: $md -> $target"
            status=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
}

for md in README.md docs/*.md; do
    [ -e "$md" ] || continue
    check_links "$md"
done

is_path_root() {
    [ -d "$1" ] || [ -d "src/$1" ]
}

check_paths() {
    local md="$1"
    local token base alts alt
    while IFS= read -r token; do
        case "$token" in
            */*) ;;
            *) continue ;;
        esac
        is_path_root "${token%%/*}" || continue
        # `dir/name.{hh,cc}` names one file per alternative.
        if [[ "$token" =~ ^([^{}]*)\{([A-Za-z0-9,]+)\}$ ]]; then
            base="${BASH_REMATCH[1]}"
            alts="${BASH_REMATCH[2]}"
            for alt in ${alts//,/ }; do
                check_path "$md" "$base$alt"
            done
        else
            check_path "$md" "$token"
        fi
    done < <(grep -oE '`[^` ]+`' "$md" | tr -d '`')
}

check_path() {
    local md="$1" path="$2"
    [[ "$path" =~ \.[A-Za-z0-9]+$ ]] || return 0
    # compgen -G also resolves glob tokens such as `tests/test_*.cc`.
    if ! compgen -G "$path" > /dev/null &&
       ! compgen -G "src/$path" > /dev/null; then
        echo "STALE PATH: $md -> \`$path\`"
        status=1
    fi
}

for md in README.md docs/*.md; do
    [ -e "$md" ] || continue
    check_paths "$md"
done

check_members() {
    local md="$1"
    local ref type member defs
    while IFS= read -r ref; do
        type="${ref%%::*}"
        member="${ref#*::}"
        case "$type" in std|laer) continue ;; esac
        defs=$(grep -rlE "(struct|class|enum class|enum)[[:space:]]+$type([[:space:]]*[:{]|[[:space:]]+final|[[:space:]]*$)" src)
        if [ -z "$defs" ]; then
            echo "STALE MEMBER: $md -> \`$ref\` (no type $type under src/)"
            status=1
        elif ! grep -qw -- "$member" $defs; then
            echo "STALE MEMBER: $md -> \`$ref\` ($member not in $type's files)"
            status=1
        fi
    done < <(grep -oE '`[A-Za-z_][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*' "$md" |
             tr -d '`' | sort -u)
}

for md in README.md docs/*.md; do
    [ -e "$md" ] || continue
    check_members "$md"
done

for hh in src/serve/*.hh src/ctrl/*.hh src/obs/*.hh \
          src/fault/*.hh src/difftest/*.hh; do
    if ! grep -q '@file' "$hh"; then
        echo "MISSING @file COMMENT: $hh"
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "docs check OK"
fi
exit "$status"
