package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"eunomia"
	"eunomia/internal/durable"
)

// testShards is the cluster width the protocol tests run against: >1 so
// routing, the merged SCAN, and cross-shard STATS aggregation are all
// exercised by every test.
const testShards = 3

// startTestServer brings up the server on a loopback port.
func startTestServer(t *testing.T) net.Addr {
	t.Helper()
	return startTestServerOpts(t, eunomia.Options{ArenaWords: 1 << 20})
}

// startTestServerOpts is startTestServer with explicit per-shard options.
func startTestServerOpts(t *testing.T, opts eunomia.Options) net.Addr {
	t.Helper()
	_, ln := startServer(t, opts)
	return ln.Addr()
}

// startServer brings up a server over a testShards-wide cluster and
// returns it with its listener, for tests that drive the
// graceful-shutdown path directly.
func startServer(t *testing.T, opts eunomia.Options) (*server, net.Listener) {
	t.Helper()
	return startClusterServer(t, eunomia.ClusterOptions{Shards: testShards, Shard: opts}, defaultLimits())
}

// startClusterServer is the fully general harness: explicit cluster
// options (fault injection, health/repair tuning) and an explicit
// serving-edge overload policy.
func startClusterServer(t *testing.T, co eunomia.ClusterOptions, lim limits) (*server, net.Listener) {
	t.Helper()
	c, err := eunomia.OpenCluster(co)
	if err != nil {
		t.Fatal(err)
	}
	s := newServerLimits(c, lim)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); c.Close() })
	go s.run(ln)
	return s, ln
}

func roundTrip(t *testing.T, conn net.Conn, in *bufio.Scanner, req string) string {
	t.Helper()
	if _, err := fmt.Fprintln(conn, req); err != nil {
		t.Fatal(err)
	}
	if !in.Scan() {
		t.Fatalf("no reply to %q", req)
	}
	return in.Text()
}

func TestProtocol(t *testing.T) {
	addr := startTestServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := bufio.NewScanner(conn)

	cases := []struct{ req, want string }{
		{"GET 5", "NOT_FOUND"},
		{"PUT 5 50", "OK"},
		{"GET 5", "VALUE 50"},
		{"PUT 5 51", "OK"},
		{"GET 5", "VALUE 51"},
		{"DEL 5", "OK"},
		{"DEL 5", "NOT_FOUND"},
		{"GET 5", "NOT_FOUND"},
		{"BOGUS", `ERR unknown command "BOGUS"`},
		{"PUT x y", "ERR"},
		{"PUT 1 18446744073709551615", "ERR eunomia: value ^uint64(0) is reserved"},
	}
	for _, c := range cases {
		got := roundTrip(t, conn, in, c.req)
		if !strings.HasPrefix(got, c.want) && got != c.want {
			t.Fatalf("%q -> %q, want %q", c.req, got, c.want)
		}
	}
}

func TestProtocolScan(t *testing.T) {
	addr := startTestServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := bufio.NewScanner(conn)

	for k := 10; k <= 30; k += 2 {
		if got := roundTrip(t, conn, in, fmt.Sprintf("PUT %d %d", k, k*10)); got != "OK" {
			t.Fatalf("put: %q", got)
		}
	}
	fmt.Fprintln(conn, "SCAN 14 4")
	var pairs []string
	for in.Scan() {
		line := in.Text()
		if line == "END" {
			break
		}
		pairs = append(pairs, line)
	}
	want := []string{"PAIR 14 140", "PAIR 16 160", "PAIR 18 180", "PAIR 20 200"}
	if len(pairs) != len(want) {
		t.Fatalf("scan: %v", pairs)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, pairs[i], want[i])
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	addr := startTestServer(t)
	const clients = 4
	done := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			in := bufio.NewScanner(conn)
			base := c * 1000
			for i := 0; i < 200; i++ {
				fmt.Fprintf(conn, "PUT %d %d\n", base+i, i)
				if !in.Scan() || in.Text() != "OK" {
					done <- fmt.Errorf("client %d: bad put reply", c)
					return
				}
			}
			for i := 0; i < 200; i++ {
				fmt.Fprintf(conn, "GET %d\n", base+i)
				if !in.Scan() || in.Text() != fmt.Sprintf("VALUE %d", i) {
					done <- fmt.Errorf("client %d: bad get reply %q", c, in.Text())
					return
				}
			}
			done <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// dialServer opens a client connection with a read deadline so a wedged
// server fails the test instead of hanging it.
func dialServer(t *testing.T, addr net.Addr) (net.Conn, *bufio.Scanner) {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewScanner(conn)
}

// assertAlive proves the server still accepts and serves new connections.
func assertAlive(t *testing.T, addr net.Addr) {
	t.Helper()
	conn, in := dialServer(t, addr)
	if got := roundTrip(t, conn, in, "PUT 777 888"); got != "OK" {
		t.Fatalf("server unhealthy: PUT -> %q", got)
	}
	if got := roundTrip(t, conn, in, "GET 777"); got != "VALUE 888" {
		t.Fatalf("server unhealthy: GET -> %q", got)
	}
}

// TestMalformedRequests: every malformed line must draw an ERR reply (or,
// for unknown verbs, the diagnostic) — never a panic, never a dropped
// connection, and the server keeps serving afterwards.
func TestMalformedRequests(t *testing.T) {
	addr := startTestServer(t)
	conn, in := dialServer(t, addr)

	cases := []struct{ req, wantPrefix string }{
		{"GET", "ERR"},
		{"GET abc", "ERR"},
		{"GET 99999999999999999999999", "ERR"}, // > MaxUint64
		{"GET 5 6", "ERR"},                     // arity
		{"PUT", "ERR"},
		{"PUT 1", "ERR"},
		{"PUT 1 2 3", "ERR"},
		{"PUT -1 5", "ERR"},
		{"DEL", "ERR"},
		{"DEL 18446744073709551616", "ERR"}, // MaxUint64+1
		{"SCAN 1", "ERR"},
		{"SCAN x y", "ERR"},
		{"\x00\x01garbage\x02", "ERR"},
		{"   ", ""},            // blank: no reply, next case must still work
		{"get 5", "NOT_FOUND"}, // verbs are case-insensitive
	}
	for _, c := range cases {
		if c.wantPrefix == "" {
			fmt.Fprintln(conn, c.req)
			continue
		}
		got := roundTrip(t, conn, in, c.req)
		if !strings.HasPrefix(got, c.wantPrefix) {
			t.Fatalf("%q -> %q, want prefix %q", c.req, got, c.wantPrefix)
		}
	}
	assertAlive(t, addr)
}

// TestScanLengthClamp: an adversarial SCAN count (MaxUint64 would convert
// to a negative int) must produce a bounded, END-terminated reply.
func TestScanLengthClamp(t *testing.T) {
	addr := startTestServer(t)
	conn, in := dialServer(t, addr)
	for k := 0; k < 10; k++ {
		if got := roundTrip(t, conn, in, fmt.Sprintf("PUT %d %d", k, k)); got != "OK" {
			t.Fatalf("put: %q", got)
		}
	}
	for _, req := range []string{
		"SCAN 0 18446744073709551615", // int(n) < 0
		"SCAN 0 9223372036854775807",  // int(n) huge
	} {
		fmt.Fprintln(conn, req)
		lines := 0
		for in.Scan() {
			if in.Text() == "END" {
				break
			}
			lines++
			if lines > maxScan {
				t.Fatalf("%q: reply exceeded the maxScan clamp", req)
			}
		}
		if err := in.Err(); err != nil {
			t.Fatalf("%q: %v", req, err)
		}
		if lines != 10 {
			t.Fatalf("%q: %d pairs, want 10", req, lines)
		}
	}
	assertAlive(t, addr)
}

// TestOversizedLine: a request line beyond the scanner's token limit must
// tear down only that connection — cleanly, with no panic — and leave the
// server serving.
func TestOversizedLine(t *testing.T) {
	addr := startTestServer(t)
	conn, _ := dialServer(t, addr)
	huge := strings.Repeat("A", 128<<10) // > bufio.MaxScanTokenSize
	if _, err := fmt.Fprintf(conn, "GET %s\n", huge); err != nil && !errors.Is(err, net.ErrClosed) {
		// The server may close mid-write; either way the write must not
		// wedge the test.
		t.Logf("write: %v", err)
	}
	// The server drops the connection: reads drain to EOF/reset.
	io.Copy(io.Discard, conn)
	assertAlive(t, addr)
}

// TestTruncatedRequestAndAbruptDisconnect: clients that vanish mid-line or
// mid-session must not wedge or kill the server.
func TestTruncatedRequestAndAbruptDisconnect(t *testing.T) {
	addr := startTestServer(t)

	// Truncated final request: no trailing newline, then an orderly close.
	conn1, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(conn1, "PUT 1") // half a request
	conn1.Close()

	// Abrupt disconnect with a request in flight (RST via SO_LINGER 0).
	conn2, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(conn2, "PUT 2 2")
	if tc, ok := conn2.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn2.Close()

	assertAlive(t, addr)
}

// TestStatsResilienceFields: a default-options server — hardened, as every
// DB is — serves the protocol and the STATS transaction counters.
func TestStatsResilienceFields(t *testing.T) {
	addr := startTestServerOpts(t, eunomia.Options{ArenaWords: 1 << 20})
	conn, in := dialServer(t, addr)
	if got := roundTrip(t, conn, in, "PUT 9 90"); got != "OK" {
		t.Fatalf("put: %q", got)
	}
	if got := roundTrip(t, conn, in, "GET 9"); got != "VALUE 90" {
		t.Fatalf("get: %q", got)
	}
	stats := roundTrip(t, conn, in, "STATS")
	for _, field := range []string{"commits=", "aborts=", "fallbacks="} {
		if !strings.Contains(stats, field) {
			t.Fatalf("STATS %q missing %q", stats, field)
		}
	}
}

// TestGracefulShutdown drives the SIGTERM path's worker directly: the
// listener stops accepting, in-flight connections drain, idle connections
// are cancelled at the drain deadline, and the DB ends up closed with
// every acknowledged write flushed.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	s, ln := startServer(t, eunomia.Options{ArenaWords: 1 << 20,
		Durability: eunomia.Durability{Dir: dir}})
	addr := ln.Addr()

	// An active client completes a durable write before shutdown.
	conn, in := dialServer(t, addr)
	if got := roundTrip(t, conn, in, "PUT 1 11"); got != "OK" {
		t.Fatalf("put: %q", got)
	}
	// An idle client sits in a blocked read; the drain deadline must
	// cancel it rather than hang shutdown forever.
	idle, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	done := make(chan struct{})
	go func() {
		s.shutdown(ln, 300*time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown wedged past the drain deadline")
	}

	// New connections must be refused (or immediately closed).
	if c, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, rerr := c.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("server accepted a connection after shutdown")
		}
		c.Close()
	}

	// The acknowledged write survived: a fresh server on the same
	// directory recovers it.
	addr2 := startTestServerOpts(t, eunomia.Options{ArenaWords: 1 << 20,
		Durability: eunomia.Durability{Dir: dir}})
	conn2, in2 := dialServer(t, addr2)
	if got := roundTrip(t, conn2, in2, "GET 1"); got != "VALUE 11" {
		t.Fatalf("write lost across graceful shutdown: %q", got)
	}
}

// TestDurableRestartPreservesData is the protocol-level durability
// round-trip: PUT/DEL through sockets, shut down, restart on the same
// directory, and observe the identical state (with recovery visible in
// STATS).
func TestDurableRestartPreservesData(t *testing.T) {
	dir := t.TempDir()
	opts := eunomia.Options{ArenaWords: 1 << 20,
		Durability: eunomia.Durability{Dir: dir}}

	s, ln := startServer(t, opts)
	conn, in := dialServer(t, ln.Addr())
	for k := 1; k <= 40; k++ {
		if got := roundTrip(t, conn, in, fmt.Sprintf("PUT %d %d", k, k*3)); got != "OK" {
			t.Fatalf("put %d: %q", k, got)
		}
	}
	for k := 5; k <= 40; k += 5 {
		if got := roundTrip(t, conn, in, fmt.Sprintf("DEL %d", k)); got != "OK" {
			t.Fatalf("del %d: %q", k, got)
		}
	}
	if got := roundTrip(t, conn, in, "SYNC"); got != "OK" {
		t.Fatalf("sync: %q", got)
	}
	stats := roundTrip(t, conn, in, "STATS")
	if !strings.Contains(stats, "flushes=") {
		t.Fatalf("durable STATS missing flush counters: %q", stats)
	}
	conn.Close()
	s.shutdown(ln, time.Second)

	_, ln2 := startServer(t, opts)
	conn2, in2 := dialServer(t, ln2.Addr())
	for k := 1; k <= 40; k++ {
		got := roundTrip(t, conn2, in2, fmt.Sprintf("GET %d", k))
		if k%5 == 0 {
			if got != "NOT_FOUND" {
				t.Fatalf("deleted key %d resurrected: %q", k, got)
			}
		} else if got != fmt.Sprintf("VALUE %d", k*3) {
			t.Fatalf("key %d lost across restart: %q", k, got)
		}
	}
	stats2 := roundTrip(t, conn2, in2, "STATS")
	if !strings.Contains(stats2, "replayed=") {
		t.Fatalf("post-recovery STATS missing replay counter: %q", stats2)
	}
}

// TestReshardCommand: RESHARD migrates the live cluster to a new width
// with every key intact, STATS reports the new topology, and a restart
// on the same directory with no -shards contract adopts the resharded
// width (while the old width is refused as a topology mismatch).
func TestReshardCommand(t *testing.T) {
	dir := t.TempDir()
	opts := eunomia.Options{ArenaWords: 1 << 20,
		Durability: eunomia.Durability{Dir: dir}}

	s, ln := startServer(t, opts)
	conn, in := dialServer(t, ln.Addr())
	for k := 1; k <= 60; k++ {
		if got := roundTrip(t, conn, in, fmt.Sprintf("PUT %d %d", k, k*3)); got != "OK" {
			t.Fatalf("put %d: %q", k, got)
		}
	}
	if got := roundTrip(t, conn, in, "RESHARD 5"); got != "OK" {
		t.Fatalf("reshard: %q", got)
	}
	for k := 1; k <= 60; k++ {
		if got := roundTrip(t, conn, in, fmt.Sprintf("GET %d", k)); got != fmt.Sprintf("VALUE %d", k*3) {
			t.Fatalf("key %d after reshard: %q", k, got)
		}
	}
	stats := roundTrip(t, conn, in, "STATS")
	if got := statValue(t, stats, "shards="); got != 5 {
		t.Fatalf("post-reshard shards = %d, want 5: %q", got, stats)
	}
	if got := statValue(t, stats, "epoch="); got < 1 {
		t.Fatalf("post-reshard epoch = %d, want >= 1: %q", got, stats)
	}
	if got := statValue(t, stats, "moves_done="); got < 1 {
		t.Fatalf("post-reshard moves_done = %d, want >= 1: %q", got, stats)
	}
	if got := roundTrip(t, conn, in, "RESHARD 99"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("RESHARD 99 -> %q, want ERR", got)
	}
	conn.Close()
	s.shutdown(ln, time.Second)

	// The old width now contradicts the store's recorded topology.
	if _, err := eunomia.OpenCluster(eunomia.ClusterOptions{Shards: testShards, Shard: opts}); !errors.Is(err, eunomia.ErrTopologyMismatch) {
		t.Fatalf("reopen at stale width: err = %v, want ErrTopologyMismatch", err)
	}

	// Shards: 0 (the unset -shards path) adopts the resharded width.
	s2, ln2 := startClusterServer(t, eunomia.ClusterOptions{Shards: 0, Shard: opts}, defaultLimits())
	if got := s2.cluster().Shards(); got != 5 {
		t.Fatalf("restart adopted %d shards, want 5", got)
	}
	conn2, in2 := dialServer(t, ln2.Addr())
	for k := 1; k <= 60; k++ {
		if got := roundTrip(t, conn2, in2, fmt.Sprintf("GET %d", k)); got != fmt.Sprintf("VALUE %d", k*3) {
			t.Fatalf("key %d after restart: %q", k, got)
		}
	}
}

// TestOpsAfterCloseReturnErr: a server whose DB has been closed answers
// requests with ERR instead of panicking or acknowledging.
func TestOpsAfterCloseReturnErr(t *testing.T) {
	s, ln := startServer(t, eunomia.Options{ArenaWords: 1 << 20})
	conn, in := dialServer(t, ln.Addr())
	if got := roundTrip(t, conn, in, "PUT 1 1"); got != "OK" {
		t.Fatalf("put: %q", got)
	}
	s.store.Close()
	for _, req := range []string{"GET 1", "PUT 2 2", "DEL 1", "SCAN 0 5"} {
		got := roundTrip(t, conn, in, req)
		if !strings.HasPrefix(got, "ERR") || !strings.Contains(got, "closed") {
			t.Fatalf("%q on closed DB -> %q, want ERR ...closed", req, got)
		}
	}
}

// TestStatsHeatmap: with the contention heatmap enabled, STATS carries
// the heat counters, and once aborts have occurred the hottest sites are
// listed. The abort breakdown keys from the unified Metrics snapshot
// appear as soon as any abort happens.
func TestStatsHeatmap(t *testing.T) {
	addr := startTestServerOpts(t, eunomia.Options{ArenaWords: 1 << 20,
		Observability: eunomia.Observability{Heatmap: true}})
	conn, in := dialServer(t, addr)
	if got := roundTrip(t, conn, in, "PUT 5 50"); got != "OK" {
		t.Fatalf("put: %q", got)
	}
	stats := roundTrip(t, conn, in, "STATS")
	if !strings.Contains(stats, "heat_aborts=") {
		t.Fatalf("heatmap STATS missing heat counter: %q", stats)
	}
	// STATS is server-wide: a second connection's writes show up too, once
	// its handle has reported them — which its QUIT makes it do.
	conn2, in2 := dialServer(t, addr)
	if got := roundTrip(t, conn2, in2, "PUT 6 60"); got != "OK" {
		t.Fatalf("put: %q", got)
	}
	if _, err := fmt.Fprintln(conn2, "QUIT"); err != nil {
		t.Fatal(err)
	}
	var s1 uint64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if s1 = statValue(t, roundTrip(t, conn, in, "STATS"), "commits="); s1 >= 2 || time.Now().After(deadline) {
			break
		}
	}
	if s1 < 2 {
		t.Fatalf("server-wide commits = %d, want >= 2", s1)
	}
}

// TestStatsAggregatesShards: STATS reports the cluster-wide aggregate —
// the shard count appears, and writes that hash to different shards are
// all counted in one commits= figure.
func TestStatsAggregatesShards(t *testing.T) {
	addr := startTestServer(t)
	conn, in := dialServer(t, addr)
	// 32 consecutive keys hash across every shard of a 3-shard cluster.
	for k := 0; k < 32; k++ {
		if got := roundTrip(t, conn, in, fmt.Sprintf("PUT %d %d", k, k)); got != "OK" {
			t.Fatalf("put %d: %q", k, got)
		}
	}
	stats := roundTrip(t, conn, in, "STATS")
	if got := statValue(t, stats, "shards="); got != testShards {
		t.Fatalf("STATS shards = %d, want %d: %q", got, testShards, stats)
	}
	if got := statValue(t, stats, "commits="); got < 32 {
		t.Fatalf("aggregate commits = %d, want >= 32 (per-shard counters not summed?): %q", got, stats)
	}
}

// TestSnapshotCommand: SNAPSHOT commits a cluster-wide consistent
// snapshot (barrier manifest + per-shard snapshot), and a restart on the
// same directory recovers through it.
func TestSnapshotCommand(t *testing.T) {
	dir := t.TempDir()
	opts := eunomia.Options{ArenaWords: 1 << 20,
		Durability: eunomia.Durability{Dir: dir}}
	s, ln := startServer(t, opts)
	conn, in := dialServer(t, ln.Addr())
	for k := 1; k <= 30; k++ {
		if got := roundTrip(t, conn, in, fmt.Sprintf("PUT %d %d", k, k*2)); got != "OK" {
			t.Fatalf("put %d: %q", k, got)
		}
	}
	if got := roundTrip(t, conn, in, "SNAPSHOT"); got != "OK" {
		t.Fatalf("snapshot: %q", got)
	}
	// Post-snapshot writes live only in the (truncated) WALs.
	for k := 31; k <= 40; k++ {
		if got := roundTrip(t, conn, in, fmt.Sprintf("PUT %d %d", k, k*2)); got != "OK" {
			t.Fatalf("put %d: %q", k, got)
		}
	}
	conn.Close()
	s.shutdown(ln, time.Second)

	_, ln2 := startServer(t, opts)
	conn2, in2 := dialServer(t, ln2.Addr())
	for k := 1; k <= 40; k++ {
		if got := roundTrip(t, conn2, in2, fmt.Sprintf("GET %d", k)); got != fmt.Sprintf("VALUE %d", k*2) {
			t.Fatalf("key %d lost across snapshot+restart: %q", k, got)
		}
	}
}

// TestConnLimitBusy: a connection beyond -maxconns draws one fast
// "BUSY too many connections" and is closed; once a slot frees, new
// connections serve again.
func TestConnLimitBusy(t *testing.T) {
	lim := defaultLimits()
	lim.maxConns = 2
	s, ln := startClusterServer(t,
		eunomia.ClusterOptions{Shards: testShards, Shard: eunomia.Options{ArenaWords: 1 << 20}}, lim)
	addr := ln.Addr()

	c1, in1 := dialServer(t, addr)
	if got := roundTrip(t, c1, in1, "PUT 1 1"); got != "OK" {
		t.Fatalf("put: %q", got)
	}
	c2, in2 := dialServer(t, addr)
	if got := roundTrip(t, c2, in2, "PUT 2 2"); got != "OK" {
		t.Fatalf("put: %q", got)
	}

	// Third connection: refused at the door, then closed.
	c3, in3 := dialServer(t, addr)
	if !in3.Scan() {
		t.Fatal("no reply on the over-limit connection")
	}
	if got := in3.Text(); !strings.HasPrefix(got, "BUSY") {
		t.Fatalf("over-limit connection -> %q, want BUSY", got)
	}
	if in3.Scan() {
		t.Fatalf("over-limit connection stayed open: %q", in3.Text())
	}
	_ = c3
	if got := s.connsRejected.Load(); got == 0 {
		t.Fatal("conns_rejected counter did not move")
	}

	// Freeing a slot restores service (unregistration is asynchronous).
	c1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		in := bufio.NewScanner(conn)
		got := roundTrip(t, conn, in, "GET 2")
		conn.Close()
		if got == "VALUE 2" {
			break
		}
		if !strings.HasPrefix(got, "BUSY") {
			t.Fatalf("GET after freeing a slot -> %q", got)
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after closing a connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInflightShedsBusy: with the admission semaphore full, requests
// draw a fast BUSY instead of queueing — while STATS stays exempt so
// the saturated server remains observable — and service resumes as soon
// as capacity frees.
func TestInflightShedsBusy(t *testing.T) {
	lim := defaultLimits()
	lim.maxInflight = 2
	s, ln := startClusterServer(t,
		eunomia.ClusterOptions{Shards: testShards, Shard: eunomia.Options{ArenaWords: 1 << 20}}, lim)
	conn, in := dialServer(t, ln.Addr())
	if got := roundTrip(t, conn, in, "PUT 1 1"); got != "OK" {
		t.Fatalf("put: %q", got)
	}

	// Saturate the semaphore deterministically.
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	for _, req := range []string{"GET 1", "PUT 2 2", "DEL 1", "SCAN 0 4", "SYNC"} {
		if got := roundTrip(t, conn, in, req); got != "BUSY server overloaded" {
			t.Fatalf("%q while saturated -> %q, want BUSY", req, got)
		}
	}
	stats := roundTrip(t, conn, in, "STATS")
	if got := statValue(t, stats, "busy="); got < 5 {
		t.Fatalf("STATS busy = %d, want >= 5: %q", got, stats)
	}

	// Capacity frees: the same connection serves again.
	<-s.inflight
	<-s.inflight
	if got := roundTrip(t, conn, in, "GET 1"); got != "VALUE 1" {
		t.Fatalf("GET after drain -> %q", got)
	}
}

// TestBurstShedsBusy: a connection that pipelines past -maxburst without
// draining replies gets BUSY for the excess requests — every request
// still draws exactly one reply line, and the connection survives.
func TestBurstShedsBusy(t *testing.T) {
	lim := defaultLimits()
	lim.maxBurst = 4
	lim.maxInflight = 0 // isolate the burst limit
	_, ln := startClusterServer(t,
		eunomia.ClusterOptions{Shards: testShards, Shard: eunomia.Options{ArenaWords: 1 << 20}}, lim)
	conn, in := dialServer(t, ln.Addr())

	const burst = 400
	var req strings.Builder
	for i := 0; i < burst; i++ {
		fmt.Fprintf(&req, "PUT %d 7\n", i)
	}
	if _, err := io.WriteString(conn, req.String()); err != nil {
		t.Fatal(err)
	}
	ok, busy := 0, 0
	for i := 0; i < burst; i++ {
		if !in.Scan() {
			t.Fatalf("reply %d missing (ok=%d busy=%d): %v", i, ok, busy, in.Err())
		}
		switch line := in.Text(); {
		case line == "OK":
			ok++
		case strings.HasPrefix(line, "BUSY"):
			busy++
		default:
			t.Fatalf("reply %d = %q", i, line)
		}
	}
	if busy == 0 {
		t.Fatalf("no requests shed from a %d-deep pipelined burst (ok=%d)", burst, ok)
	}
	if ok < lim.maxBurst {
		t.Fatalf("burst head not served: ok=%d, want >= %d", ok, lim.maxBurst)
	}
	// The connection is still good once the client drains replies.
	if got := roundTrip(t, conn, in, "PUT 5 50"); got != "OK" {
		t.Fatalf("PUT after burst -> %q", got)
	}
}

// TestReadTimeoutDisconnectsIdle: a client idle past -read-timeout is
// disconnected (its slot is reclaimed) while the server keeps serving.
func TestReadTimeoutDisconnectsIdle(t *testing.T) {
	lim := defaultLimits()
	lim.readTimeout = 150 * time.Millisecond
	_, ln := startClusterServer(t,
		eunomia.ClusterOptions{Shards: testShards, Shard: eunomia.Options{ArenaWords: 1 << 20}}, lim)
	conn, in := dialServer(t, ln.Addr())
	if got := roundTrip(t, conn, in, "PUT 1 1"); got != "OK" {
		t.Fatalf("put: %q", got)
	}
	time.Sleep(500 * time.Millisecond)
	if in.Scan() {
		t.Fatalf("idle connection still served: %q", in.Text())
	}
	assertAlive(t, ln.Addr())
}

// TestStatsFaultFields: STATS carries the fault-domain and serving-edge
// counters, with per-shard health rendered one letter per shard.
func TestStatsFaultFields(t *testing.T) {
	addr := startTestServer(t)
	conn, in := dialServer(t, addr)
	stats := roundTrip(t, conn, in, "STATS")
	for _, field := range []string{"health=", "trips=", "repairs=", "shed=",
		"retries=", "retries_denied=", "busy=", "conns_rejected="} {
		if !strings.Contains(stats, field) {
			t.Fatalf("STATS %q missing %q", stats, field)
		}
	}
	want := "health=" + strings.Repeat("H", testShards)
	if !strings.Contains(stats, want) {
		t.Fatalf("STATS %q: want %q (all shards healthy)", stats, want)
	}
	// The counters of the removed hardening bundle are gone from the line.
	for _, field := range []string{"backoff=", "degraded=", "watchdog=", "storms="} {
		if strings.Contains(stats, field) {
			t.Fatalf("STATS %q still carries %q", stats, field)
		}
	}
}

// TestServeShardKillAndRepair is the serving-layer chaos test: one shard
// disk dies under a live server — that shard's slice of the key space
// degrades to typed errors while every other shard keeps serving — and
// when the disk comes back, the repair loop re-admits the shard and its
// acknowledged writes are served again, all observed through the socket.
func TestServeShardKillAndRepair(t *testing.T) {
	fses := []*durable.MemFS{
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
		durable.NewMemFS(durable.FaultPlan{}),
	}
	co := eunomia.ClusterOptions{
		Shards: len(fses),
		Shard: eunomia.Options{
			ArenaWords: 1 << 19,
			Durability: eunomia.Durability{Dir: "clusterdb", FS: durable.NewMemFS(durable.FaultPlan{})},
		},
		PerShard: func(i int, o *eunomia.Options) { o.Durability.FS = fses[i] },
		Health:   eunomia.HealthOptions{Window: 8, TripFailures: 2},
		Repair: eunomia.RepairOptions{Backoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
			Probes: 2, ProbeInterval: time.Millisecond},
	}
	s, ln := startClusterServer(t, co, defaultLimits())
	conn, in := dialServer(t, ln.Addr())

	// Sort keys by owning shard, then ack a batch everywhere.
	var mine, theirs []uint64 // shard 1's keys vs everyone else's
	for k := uint64(1); len(mine) < 60 || len(theirs) < 40; k++ {
		if s.cluster().ShardFor(k) == 1 {
			mine = append(mine, k)
		} else {
			theirs = append(theirs, k)
		}
	}
	for _, k := range append(append([]uint64{}, mine[:40]...), theirs[:40]...) {
		if got := roundTrip(t, conn, in, fmt.Sprintf("PUT %d %d", k, k*3)); got != "OK" {
			t.Fatalf("put %d: %q", k, got)
		}
	}

	// Kill shard 1's disk and drive its keys until the breaker trips.
	fses[1].Kill()
	tripped := false
	for _, k := range mine[40:] {
		if got := roundTrip(t, conn, in, fmt.Sprintf("PUT %d 1", k)); strings.HasPrefix(got, "ERR") &&
			s.cluster().ShardState(1) == eunomia.ShardFailed {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatalf("shard 1 never tripped (state %v)", s.cluster().ShardState(1))
	}

	// Degraded service: shard 1's keys fail with the shard error, every
	// other shard keeps serving, and STATS shows the open breaker.
	if got := roundTrip(t, conn, in, fmt.Sprintf("GET %d", mine[0])); !strings.HasPrefix(got, "ERR") ||
		!strings.Contains(got, "shard 1") {
		t.Fatalf("dead-shard GET -> %q, want ERR ...shard 1", got)
	}
	for _, k := range theirs[:40] {
		if got := roundTrip(t, conn, in, fmt.Sprintf("GET %d", k)); got != fmt.Sprintf("VALUE %d", k*3) {
			t.Fatalf("healthy-shard GET %d -> %q", k, got)
		}
	}
	if stats := roundTrip(t, conn, in, "STATS"); !strings.Contains(stats, "trips=") ||
		statValue(t, stats, "trips=") == 0 {
		t.Fatalf("STATS did not record the trip: %q", stats)
	}

	// The disk returns; the repair loop replays the WAL, runs probation,
	// and re-admits. Watch it happen through STATS.
	fses[1].Reboot()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats := roundTrip(t, conn, in, "STATS")
		if strings.Contains(stats, "health="+strings.Repeat("H", len(fses))) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 never re-admitted: %q", stats)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Every write acknowledged before the kill is served again.
	for _, k := range mine[:40] {
		if got := roundTrip(t, conn, in, fmt.Sprintf("GET %d", k)); got != fmt.Sprintf("VALUE %d", k*3) {
			t.Fatalf("re-admitted shard lost key %d: %q", k, got)
		}
	}
}

// statValue extracts one key=value counter from a STATS line.
func statValue(t *testing.T, stats, key string) uint64 {
	t.Helper()
	i := strings.Index(stats, key)
	if i < 0 {
		t.Fatalf("STATS %q missing %q", stats, key)
	}
	var v uint64
	fmt.Sscanf(stats[i+len(key):], "%d", &v)
	return v
}
