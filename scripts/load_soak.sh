#!/usr/bin/env bash
# Load/soak gate for the serving layer.
#
# Boots a release-build `rumor serve`, then drives it with `loadgen`: a
# wall of concurrent keep-alive status pollers plus streaming consumers
# following one long throttled campaign. The gate
# fails on any non-shed 5xx, a blown p99 latency bound, or server fd
# growth across the soak (leaked connection slots).
#
# Usage: scripts/load_soak.sh [short|long]
#   short  PR-sized smoke: ~12 s soak           (default)
#   long   nightly soak:   60 s
#
# Overrides: LOADSOAK_CONNECTIONS, LOADSOAK_STREAMS, LOADSOAK_P99_MS.
set -euo pipefail

MODE="${1:-short}"
case "$MODE" in
short) DURATION=12 ;;
long) DURATION=60 ;;
*)
    echo "usage: $0 [short|long]" >&2
    exit 2
    ;;
esac
CONNECTIONS="${LOADSOAK_CONNECTIONS:-1000}"
STREAMS="${LOADSOAK_STREAMS:-4}"
P99_MS="${LOADSOAK_P99_MS:-750}"

cd "$(dirname "$0")/.."

# The poller fleet needs ~1k fds on each side of the socket; lift the
# soft nofile limit as far as the environment allows.
ulimit -n 16384 2>/dev/null || ulimit -n 4096 2>/dev/null || true

cargo build --release -q -p rumor-cli -p rumor-bench --bins

JOBS_DIR="$(mktemp -d)"
SERVER_LOG="$(mktemp)"
cleanup() {
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    rm -rf "$JOBS_DIR" "$SERVER_LOG"
}

target/release/rumor serve \
    --addr 127.0.0.1:0 \
    --max-connections 2048 \
    --jobs-dir "$JOBS_DIR" \
    >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!
trap cleanup EXIT

ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's#.*listening on http://\([^ ]*\).*#\1#p' "$SERVER_LOG" | head -n 1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.2
done
if [ -z "$ADDR" ]; then
    echo "load_soak: server did not print its listening banner" >&2
    cat "$SERVER_LOG" >&2
    exit 1
fi
echo "load_soak: mode=$MODE server=$ADDR pid=$SERVER_PID"

LOADGEN_STATUS=0
target/release/loadgen \
    --addr "$ADDR" \
    --connections "$CONNECTIONS" \
    --streams "$STREAMS" \
    --duration-secs "$DURATION" \
    --p99-ms "$P99_MS" \
    --server-pid "$SERVER_PID" || LOADGEN_STATUS=$?

# The soak ends with a graceful drain: SIGTERM must stop the server
# cleanly even right after a thousand clients hung up.
kill -TERM "$SERVER_PID"
SERVER_STATUS=0
wait "$SERVER_PID" || SERVER_STATUS=$?
trap - EXIT
rm -rf "$JOBS_DIR"

if [ "$SERVER_STATUS" -ne 0 ]; then
    echo "load_soak: server exited $SERVER_STATUS after SIGTERM" >&2
    cat "$SERVER_LOG" >&2
    rm -f "$SERVER_LOG"
    exit 1
fi
rm -f "$SERVER_LOG"

exit "$LOADGEN_STATUS"
