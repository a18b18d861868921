#!/bin/sh
# Run the isomon element commands on fixed inputs and print, for each, the
# command, its standard output and standard error, and its exit code.
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
cat > int-gens.json <<'EOF'
[{"kind": "nat", "shift": 1, "exceptions": []},
 {"kind": "int", "a": -1, "reflect": false, "exceptions": [-2, 5]}]
EOF
cat > nat-identity.json <<'EOF'
{"kind": "nat", "shift": 0, "exceptions": []}
EOF
cat > nat-hole-3.json <<'EOF'
{"kind": "nat", "shift": 0, "exceptions": [3]}
EOF
cat > nat-shift-2.json <<'EOF'
{"kind": "nat", "shift": 2, "exceptions": []}
EOF
cat > nat-holes-3-7.json <<'EOF'
{"kind": "nat", "shift": 0, "exceptions": [3, 7]}
EOF
cat > nat-run-4-5.json <<'EOF'
{"kind": "nat", "shift": 2, "exceptions": [4, 5, 9]}
EOF
cat > nat-down-2.json <<'EOF'
{"kind": "nat", "shift": -2, "exceptions": [1, 2, 5]}
EOF
cat > rat.json <<'EOF'
{"kind": "rat", "shift": 1, "exceptions": []}
EOF
cat > nat-no-shift.json <<'EOF'
{"kind": "nat", "exceptions": [1, 3]}
EOF
cat > int-no-reflect.json <<'EOF'
{"kind": "int", "a": 2, "exceptions": [0]}
EOF

run() {
    printf '$ isomon %s\n' "$*"
    python -m isomon.cli "$@" 2>&1
    echo "exit $?"
}

run eval "e[3] b a^3"
run compose nat-left.json nat-right.json
run compose int-left.json int-right.json
run decompose word.json
run decompose --k 6 word.json
run sigma int-left.json
run hclass --exceptions=-1,3
run hclass --exceptions ""
run hclass --exceptions " -1 , +3 "
run hclass --exceptions 0,x
run hclass --exceptions 0,2,3
run order --a 3 --reflect
run extend --n -2 word.json
run extend --n -2 nat-left.json
# canonical forms: the total shift (0, 1), 1 and 2 absorbed into the
# negative tail at --n 0 but kept as middle pairs at --n -2, and a shift
run extend --n 0 nat-identity.json
run extend --n 0 nat-hole-3.json
run extend --n -2 nat-hole-3.json
run extend --n -1 nat-shift-2.json
# the positive tail stored by its holes: the negative tail through 1..2 and
# a hole left above it, a run of consecutive holes, and a down shift
run extend --n 0 nat-holes-3-7.json
run extend --n -1 nat-run-4-5.json
run extend --n -2 nat-down-2.json
run refute-fg gens.json

# error paths, each an "isomon: " message and exit 1, and two words that
# parse though they look malformed (I^3 a, e[007]^02 a)
for word in "e3" "e[" "e[]" "e[12 b" "e[1]" "a^" "a^0" "a b?" "I^3 a" "e[007]^02 a"; do
    run eval "$word"
done
run decompose int-left.json
run extend int-left.json
run extend --n 1 word.json
run compose nat-left.json int-right.json
run refute-fg int-gens.json
run sigma rat.json
run compose nat-no-shift.json nat-right.json
run extend nat-no-shift.json
run compose int-left.json int-no-reflect.json
