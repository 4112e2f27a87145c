#!/bin/sh
# replica-smoke.sh — end-to-end smoke test of the replicated serving path.
#
# Boots three `ceaffd -replica` processes, each owning one slice of the
# source space and speaking the framed binary gather protocol, plus one
# `ceaffd -router` process in front of them, and one `ceaffd -shards 3`
# process serving the same split in process. Asserts a healthy collective
# answer first, byte-identical align and candidates bodies from the router
# fleet and the in-process shards (which then drain cleanly), then kill -9s
# one replica and asserts the router keeps
# answering 200 with Engine-Partial and per-source "degraded" markers
# instead of failing, then restarts the replica on its old address and
# asserts full recovery — and finally SIGTERMs everything and requires
# clean (exit 0) drains.
set -eu

workdir=$(mktemp -d)
bin="$workdir/ceaffd"
router_pid=""
shards_pid=""
pid0=""
pid1=""
pid2=""

cleanup() {
	for p in "$router_pid" "$shards_pid" "$pid0" "$pid1" "$pid2"; do
		if [ -n "$p" ] && kill -0 "$p" 2>/dev/null; then
			kill -KILL "$p" 2>/dev/null || true
		fi
	done
	rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
	echo "replica-smoke: FAIL: $1" >&2
	for log in "$workdir"/*.log; do
		echo "--- $log ---" >&2
		cat "$log" >&2 || true
	done
	exit 1
}

echo "replica-smoke: building ceaffd"
go build -o "$bin" ./cmd/ceaffd

# All replicas must synthesize the identical corpus: same dataset flags,
# same split seed. The router verifies the fleet's names fingerprint and
# refuses to assemble a mismatched one.
DATASET_FLAGS="-fast -scale 0.05"

# boot_replica <index> [addr] — starts replica <index>/3; with no explicit
# addr an ephemeral port is picked and written to the addrfile.
boot_replica() {
	idx=$1
	addr=${2:-127.0.0.1:0}
	rm -f "$workdir/addr$idx"
	"$bin" -replica -partition "$idx/3" $DATASET_FLAGS \
		-addr "$addr" -addrfile "$workdir/addr$idx" \
		-drain-timeout 10s >>"$workdir/replica$idx.log" 2>&1 &
	eval "pid$idx=$!"
}

wait_addr() {
	idx=$1
	pidvar=$(eval echo "\$pid$idx")
	i=0
	while [ ! -s "$workdir/addr$idx" ]; do
		kill -0 "$pidvar" 2>/dev/null || fail "replica $idx exited before binding"
		i=$((i + 1))
		[ "$i" -le 100 ] || fail "replica $idx addrfile never appeared"
		sleep 0.1
	done
	cat "$workdir/addr$idx"
}

echo "replica-smoke: booting 3 replicas"
boot_replica 0
boot_replica 1
boot_replica 2
addr0=$(wait_addr 0)
addr1=$(wait_addr 1)
addr2=$(wait_addr 2)
echo "replica-smoke: replicas on $addr0 $addr1 $addr2"

# The same split served in process: one daemon, three partitions behind
# local transports, the same Router. It boots alongside the fleet.
rm -f "$workdir/addr_s"
"$bin" -shards 3 $DATASET_FLAGS \
	-addr 127.0.0.1:0 -addrfile "$workdir/addr_s" -cache-size 0 \
	-drain-timeout 10s >>"$workdir/shards.log" 2>&1 &
shards_pid=$!

# The router polls the fleet until every replica finishes its offline
# pipeline, so it can boot concurrently with the replicas' warm-up.
rm -f "$workdir/addr_r"
"$bin" -router -replicas "http://$addr0,http://$addr1,http://$addr2" \
	-addr 127.0.0.1:0 -addrfile "$workdir/addr_r" \
	-probe-interval 200ms -boot-timeout 180s -cache-size 0 \
	-drain-timeout 10s >>"$workdir/router.log" 2>&1 &
router_pid=$!
i=0
while [ ! -s "$workdir/addr_r" ]; do
	kill -0 "$router_pid" 2>/dev/null || fail "router exited before binding"
	i=$((i + 1))
	[ "$i" -le 100 ] || fail "router addrfile never appeared"
	sleep 0.1
done
raddr=$(cat "$workdir/addr_r")
echo "replica-smoke: router on $raddr"

i=0
while :; do
	code=$(curl -s -m 5 -o /dev/null -w '%{http_code}' "http://$raddr/readyz" || echo 000)
	[ "$code" = 200 ] && break
	[ "$code" = 503 ] || [ "$code" = 000 ] || fail "/readyz returned $code"
	kill -0 "$router_pid" 2>/dev/null || fail "router died during fleet boot"
	i=$((i + 1))
	[ "$i" -le 1800 ] || fail "router never became ready"
	sleep 0.1
done
echo "replica-smoke: router ready"

# Two dozen sources spreads the query across every partition of the
# consistent-hash ring (ownership is deterministic per corpus).
QUERY='{"sources":["0","1","2","3","4","5","6","7","8","9","10","11","12","13","14","15","16","17","18","19","20","21","22","23"]}'

align() {
	curl -s -m 10 -D "$workdir/headers" -X POST "http://$raddr/v1/align" \
		-H 'Content-Type: application/json' -d "$QUERY"
}

# Healthy fleet: a full collective answer, no degradation markers.
body=$(align) || fail "healthy align query failed"
case "$body" in
*'"results"'*'"target"'*) ;;
*) fail "healthy align response malformed: $body" ;;
esac
case "$body" in
*'"degraded":true'*) fail "healthy fleet produced degraded rows: $body" ;;
esac
grep -qi 'Engine-Partial' "$workdir/headers" && fail "healthy fleet set Engine-Partial"
echo "replica-smoke: healthy collective answer across 3 replicas"

# The in-process shards must answer byte-identically to the fleet.
i=0
while [ ! -s "$workdir/addr_s" ]; do
	kill -0 "$shards_pid" 2>/dev/null || fail "-shards daemon exited before binding"
	i=$((i + 1))
	[ "$i" -le 100 ] || fail "-shards addrfile never appeared"
	sleep 0.1
done
saddr=$(cat "$workdir/addr_s")
i=0
while :; do
	code=$(curl -s -m 5 -o /dev/null -w '%{http_code}' "http://$saddr/readyz" || echo 000)
	[ "$code" = 200 ] && break
	[ "$code" = 503 ] || [ "$code" = 000 ] || fail "-shards /readyz returned $code"
	kill -0 "$shards_pid" 2>/dev/null || fail "-shards daemon died during boot"
	i=$((i + 1))
	[ "$i" -le 1800 ] || fail "-shards daemon never became ready"
	sleep 0.1
done
for who in fleet shards; do
	a=$raddr
	[ "$who" = shards ] && a=$saddr
	curl -sf -m 10 -o "$workdir/$who-align.json" -X POST "http://$a/v1/align" \
		-H 'Content-Type: application/json' -d "$QUERY" || fail "$who align query failed"
	curl -sf -m 10 -o "$workdir/$who-cands.json" \
		"http://$a/v1/entity/3/candidates?k=5" || fail "$who candidates query failed"
done
cmp -s "$workdir/fleet-align.json" "$workdir/shards-align.json" ||
	fail "-shards align body differs from the router fleet's"
cmp -s "$workdir/fleet-cands.json" "$workdir/shards-cands.json" ||
	fail "-shards candidates body differs from the router fleet's"
kill -TERM "$shards_pid"
rc=0
wait "$shards_pid" || rc=$?
[ "$rc" = 0 ] || fail "-shards daemon exited $rc after SIGTERM, want 0"
shards_pid=""
echo "replica-smoke: -shards 3 answers byte-identical to the fleet, drained cleanly"

# kill -9 one replica: the router must answer partially, never 500.
kill -KILL "$pid1"
wait "$pid1" 2>/dev/null || true
pid1=""
echo "replica-smoke: replica 1 killed (SIGKILL)"

code=$(curl -s -m 10 -o "$workdir/partial.json" -D "$workdir/headers" \
	-w '%{http_code}' -X POST "http://$raddr/v1/align" \
	-H 'Content-Type: application/json' -d "$QUERY") || fail "align during outage failed"
[ "$code" = 200 ] || fail "align during outage returned $code, want 200 (partial)"
grep -qi 'Engine-Partial: true' "$workdir/headers" || fail "Engine-Partial header missing during outage"
grep -q '"degraded":true' "$workdir/partial.json" || fail "no degraded rows during outage"
echo "replica-smoke: partial degraded answer while replica 1 is down"

# Restart the replica on its old address; the router's probe loop must
# notice and return to full answers.
boot_replica 1 "$addr1"
i=0
while :; do
	body=$(align) || body=""
	case "$body" in
	'' | *'"degraded":true'*) ;;
	*'"results"'*)
		grep -qi 'Engine-Partial' "$workdir/headers" || break
		;;
	esac
	kill -0 "$pid1" 2>/dev/null || fail "restarted replica died during recovery"
	i=$((i + 1))
	[ "$i" -le 1800 ] || fail "router never recovered after replica restart"
	sleep 0.1
done
echo "replica-smoke: full answers restored after replica restart"

# SIGTERM everything: clean drains all around.
kill -TERM "$router_pid"
rc=0
wait "$router_pid" || rc=$?
[ "$rc" = 0 ] || fail "router exited $rc after SIGTERM, want 0"
router_pid=""

for idx in 0 1 2; do
	p=$(eval echo "\$pid$idx")
	kill -TERM "$p"
	rc=0
	wait "$p" || rc=$?
	[ "$rc" = 0 ] || fail "replica $idx exited $rc after SIGTERM, want 0"
	eval "pid$idx="
done
echo "replica-smoke: PASS (in-process shards match the fleet, partial answers under loss, clean recovery, exit 0)"
