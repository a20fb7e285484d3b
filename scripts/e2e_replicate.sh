#!/usr/bin/env bash
# End-to-end check of the streaming + replication plane: one real
# cubelsiserve writer and two real read-only replicas. The writer builds
# from the paper's running example, a delta log is streamed through
# POST /stream?flush=1, and both replicas must converge on the new
# version — and the source fingerprint each flush response names — with
# spool files byte-identical to the writer's — the same
# verified-bytes contract internal/replicate pins in its unit tests,
# here crossing real process and socket boundaries. A chaos pass kills
# one replica, publishes past it, and asserts the restarted process
# catches up from its anti-entropy poll.
#
# Usage: scripts/e2e_replicate.sh [writer_port [replica1_port [replica2_port]]]
set -eu

WPORT=${1:-19181}
R1PORT=${2:-19182}
R2PORT=${3:-19183}
WORK=$(mktemp -d)
PIDS=""

cleanup() {
	for pid in $PIDS; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$WORK"
}
trap cleanup EXIT

WRITER="http://127.0.0.1:$WPORT"
R1="http://127.0.0.1:$R1PORT"
R2="http://127.0.0.1:$R2PORT"

# model_version <base-url>: the serving version from /stats (empty
# before the first model arrives — replicas answer 503 until then).
model_version() {
	curl -s "$1/stats" 2>/dev/null | sed -n 's/.*"model_version":\([0-9]*\).*/\1/p'
}

# fingerprint <json>: the source_fingerprint key of a JSON body (empty
# when absent).
fingerprint() {
	echo "$1" | sed -n 's/.*"source_fingerprint":"\([0-9a-f]*\)".*/\1/p'
}

# check_lineage <stream-response> <what>: a /stream?flush=1 response
# names the snapshot it published by source_fingerprint, and that is the
# fingerprint the writer's /stats serves — the same lineage, not only
# the same version number.
check_lineage() {
	fp=$(fingerprint "$1")
	if [ -z "$fp" ]; then
		echo "e2e-replicate: FAIL: $2 /stream?flush=1 response carries no source_fingerprint: $1" >&2
		exit 1
	fi
	if [ "$fp" != "$(fingerprint "$(curl -s "$WRITER/stats")")" ]; then
		echo "e2e-replicate: FAIL: $2 /stream fingerprint $fp is not the writer's /stats fingerprint" >&2
		exit 1
	fi
}

# check_replica_lineage <base-url> <fingerprint> <what>: a converged
# replica serves the writer's lineage.
check_replica_lineage() {
	got=$(fingerprint "$(curl -s "$1/stats")")
	if [ "$got" != "$2" ]; then
		echo "e2e-replicate: FAIL: $3 serves source_fingerprint '$got', writer published '$2'" >&2
		exit 1
	fi
}

# wait_version <base-url> <version> <what>: poll until the server serves
# exactly that model version.
wait_version() {
	for _ in $(seq 1 100); do
		if [ "$(model_version "$1")" = "$2" ]; then
			return 0
		fi
		sleep 0.1
	done
	echo "e2e-replicate: $3 never reached model v$2 (at: $(model_version "$1"))" >&2
	curl -s "$1/stats" >&2 || true
	exit 1
}

echo "e2e-replicate: building cubelsiserve"
go build -o "$WORK/cubelsiserve" ./cmd/cubelsiserve

# The paper's running example (Figure 1): every assignment survives
# cleaning at -min-support 1.
cat >"$WORK/corpus.tsv" <<'EOF'
u1	folk	r1
u1	folk	r2
u2	folk	r2
u3	folk	r2
u1	people	r1
u2	laptop	r3
u3	laptop	r3
EOF

mkdir -p "$WORK/writer-spool" "$WORK/r1-spool" "$WORK/r2-spool"

# The writer's automatic flush triggers are pushed out of reach so the
# only flushes are the explicit ?flush=1 ones — the run stays
# deterministic: every streamed batch maps to exactly one version bump.
"$WORK/cubelsiserve" -data "$WORK/corpus.tsv" \
	-min-support 1 -ratio 2 -concepts 2 -seed 1 \
	-addr "127.0.0.1:$WPORT" -spool "$WORK/writer-spool" \
	-notify "$R1,$R2" \
	-stream-flush-n 1000000 -stream-flush-interval 1h -stream-flush-drift -1 &
PIDS="$PIDS $!"

start_replica() { # port spool
	"$WORK/cubelsiserve" -replica-of "$WRITER" -addr "127.0.0.1:$1" \
		-spool "$2" -replica-poll 1s &
	PIDS="$PIDS $!"
}
start_replica "$R1PORT" "$WORK/r1-spool"
start_replica "$R2PORT" "$WORK/r2-spool"

# The initial build publishes v1; both replicas pull it on startup sync
# (or their 1s poll) without any delta having been streamed.
wait_version "$WRITER" 1 "writer"
echo "e2e-replicate: writer serving v1 on $WPORT"
wait_version "$R1" 1 "replica 1"
wait_version "$R2" 1 "replica 2"
echo "e2e-replicate: both replicas converged on v1"

# Stream a delta log: four assignment records with client identity and
# sequence numbers, flushed synchronously into v2.
cat >"$WORK/delta1.ndjson" <<'EOF'
{"user":"u4","tag":"jazz","resource":"r4","client":"e2e","seq":1}
{"user":"u4","tag":"jazz","resource":"r2","client":"e2e","seq":2}
{"user":"u1","tag":"jazz","resource":"r4","client":"e2e","seq":3}
{"user":"u2","tag":"folk","resource":"r4","client":"e2e","seq":4}
EOF
RESP=$(curl -sf --data-binary @"$WORK/delta1.ndjson" "$WRITER/stream?flush=1")
echo "e2e-replicate: stream response: $RESP"
case "$RESP" in
*'"accepted":4'*'"model_version":2'*) ;;
*)
	echo "e2e-replicate: FAIL: unexpected /stream response" >&2
	exit 1
	;;
esac
check_lineage "$RESP" "first"
FP2=$(fingerprint "$RESP")

# Redelivering the same log must be absorbed by the idempotency window:
# nothing accepted, no version bump.
RESP=$(curl -sf --data-binary @"$WORK/delta1.ndjson" "$WRITER/stream?flush=1")
case "$RESP" in
*'"accepted":0'*'"duplicates":4'*'"model_version":2'*) ;;
*)
	echo "e2e-replicate: FAIL: redelivered log not deduplicated: $RESP" >&2
	exit 1
	;;
esac
check_lineage "$RESP" "redelivered"
echo "e2e-replicate: redelivered delta log fully deduplicated"

wait_version "$R1" 2 "replica 1"
wait_version "$R2" 2 "replica 2"
check_replica_lineage "$R1" "$FP2" "replica 1"
check_replica_lineage "$R2" "$FP2" "replica 2"
echo "e2e-replicate: both replicas converged on v2, same source fingerprint as the writer"

for spool in "$WORK/r1-spool" "$WORK/r2-spool"; do
	if ! cmp "$WORK/writer-spool/model-v2.clsi" "$spool/model-v2.clsi"; then
		echo "e2e-replicate: FAIL: $spool/model-v2.clsi differs from the writer's" >&2
		exit 1
	fi
done
echo "e2e-replicate: replica snapshots byte-identical to the writer's"

# The streamed tags must actually serve from a replica.
if ! curl -sf "$R1/search?q=jazz" | grep -q '"results"'; then
	echo "e2e-replicate: FAIL: replica 1 does not serve the streamed tag" >&2
	exit 1
fi

# Chaos: kill replica 2, publish past it, and assert the restarted
# process converges from its startup sync / anti-entropy poll — the
# lost notify must not strand it.
R2PID=$(echo "$PIDS" | awk '{print $NF}')
kill "$R2PID"
wait "$R2PID" 2>/dev/null || true
echo "e2e-replicate: replica 2 killed; streaming a second delta"

cat >"$WORK/delta2.ndjson" <<'EOF'
{"user":"u3","tag":"jazz","resource":"r3","client":"e2e","seq":5}
{"user":"u4","tag":"laptop","resource":"r3","client":"e2e","seq":6}
EOF
RESP=$(curl -sf --data-binary @"$WORK/delta2.ndjson" "$WRITER/stream?flush=1")
case "$RESP" in
*'"accepted":2'*'"model_version":3'*) ;;
*)
	echo "e2e-replicate: FAIL: unexpected second /stream response: $RESP" >&2
	exit 1
	;;
esac
check_lineage "$RESP" "second"
FP3=$(fingerprint "$RESP")
wait_version "$R1" 3 "replica 1 (surviving)"

start_replica "$R2PORT" "$WORK/r2-spool"
wait_version "$R2" 3 "replica 2 (restarted)"
if ! curl -s "$R2/stats" | grep -q '"version_skew":0'; then
	echo "e2e-replicate: FAIL: restarted replica still reports version skew" >&2
	curl -s "$R2/stats" >&2
	exit 1
fi
check_replica_lineage "$R1" "$FP3" "replica 1"
check_replica_lineage "$R2" "$FP3" "replica 2 (restarted)"
echo "e2e-replicate: restarted replica caught up to v3 with zero skew and the writer's fingerprint"

for spool in "$WORK/r1-spool" "$WORK/r2-spool"; do
	if ! cmp "$WORK/writer-spool/model-v3.clsi" "$spool/model-v3.clsi"; then
		echo "e2e-replicate: FAIL: $spool/model-v3.clsi differs from the writer's" >&2
		exit 1
	fi
done

echo "e2e-replicate: PASS: fleet converged, snapshots byte-identical, chaos recovery verified"
