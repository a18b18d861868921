#!/bin/sh
# Run the isomon element commands on fixed JSON inputs and print, for each,
# the command, its standard output and its exit code.
#
# isomon is imported from PYTHONPATH (one directory), so the same script
# can run against two trees and the outputs be compared byte for byte:
#
#   PYTHONPATH=base/src sh tests/element_commands.sh > base.txt
#   PYTHONPATH=src sh tests/element_commands.sh > head.txt
#   cmp base.txt head.txt
set -u
PYTHONPATH=$(cd "${PYTHONPATH:?set PYTHONPATH to the src directory of a tree}" && pwd)
export PYTHONPATH
inputs=$(mktemp -d)
trap 'rm -rf "$inputs"' EXIT
cd "$inputs"

cat > nat-left.json <<'EOF'
{"kind": "nat", "shift": -2, "exceptions": [1, 2, 3, 5, 9]}
EOF
cat > nat-right.json <<'EOF'
{"kind": "nat", "shift": 3, "exceptions": [1, 4, 6, 7]}
EOF
cat > int-left.json <<'EOF'
{"kind": "int", "a": 3, "reflect": true, "exceptions": [-4, 0, 2]}
EOF
cat > int-right.json <<'EOF'
{"kind": "int", "a": -1, "reflect": false, "exceptions": [-2, 5]}
EOF
cat > word.json <<'EOF'
{"kind": "nat", "shift": 1, "exceptions": [1, 2, 4, 7, 8]}
EOF
cat > gens.json <<'EOF'
[{"kind": "nat", "shift": 1, "exceptions": []},
 {"kind": "nat", "shift": -1, "exceptions": [1]},
 {"kind": "nat", "shift": 0, "exceptions": [2, 5]},
 {"kind": "nat", "shift": 2, "exceptions": [1, 3, 4]}]
EOF

run() {
    printf '$ isomon %s\n' "$*"
    python -m isomon.cli "$@"
    echo "exit $?"
}

run eval "e[3] b a^3"
run compose nat-left.json nat-right.json
run compose int-left.json int-right.json
run decompose word.json
run decompose --k 6 word.json
run sigma int-left.json
run hclass --exceptions=-1,3
run order --a 3 --reflect
run extend --n -2 word.json
run extend --n -2 nat-left.json
run refute-fg gens.json
