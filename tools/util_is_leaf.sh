#!/bin/sh
# Layering check (ctest layering.util_is_leaf): src/util is the leaf module
# every other one links, so it includes no header of another src/ module
# and its CMakeLists.txt links no paai_* library.
# Usage: tools/util_is_leaf.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 2
modules="$(ls -d src/*/ | xargs -n1 basename | grep -vx util | paste -sd'|')"
if grep -rnE "#[[:space:]]*include[[:space:]]*[\"<]($modules)/" src/util; then
  echo "error: src/util includes another src/ module's header" >&2
  exit 1
fi
# The target_link_libraries() calls minus their first argument, the target.
if tr '\n' ' ' < src/util/CMakeLists.txt |
    grep -o 'target_link_libraries([^)]*)' |
    sed 's/target_link_libraries( *[^ )]*//' | grep 'paai_'; then
  echo "error: src/util/CMakeLists.txt links a paai_* library" >&2
  exit 1
fi
