// kvserver exposes a sharded cluster of Euno-B+Trees over TCP with a
// minimal text protocol — the "in-memory database index" deployment the
// paper's introduction motivates (DBX-style stores front their HTM
// B+Trees with exactly this kind of request loop). -shards N partitions
// the key space across N independent trees (own arena, HTM device, WAL
// group, metrics domain each); requests route by key, SCAN merges the
// per-shard iterators into one ordered stream.
//
// Protocol (one request per line):
//
//	GET <key>            -> VALUE <v> | NOT_FOUND
//	PUT <key> <value>    -> OK
//	DEL <key>            -> OK | NOT_FOUND
//	SCAN <from> <n>      -> n lines "PAIR <k> <v>", then END
//	SYNC                 -> OK (forces buffered WAL bytes to disk, all shards)
//	SNAPSHOT             -> OK (consistent cluster-wide snapshot: barrier
//	                        manifest + per-shard snapshot/truncate)
//	RESHARD <n>          -> OK | ERR ... (live topology change to n shards;
//	                        blocks this connection until the migration
//	                        completes — other connections keep serving
//	                        through the epoched routing table, and in
//	                        durable mode the migration itself is
//	                        crash-safe: a restart resumes or rolls forward)
//	STATS                -> one line: the Cluster.Metrics() aggregate —
//	                        cluster-wide commit/abort/fallback counters, the
//	                        abort decomposition by reason, durability counters,
//	                        per-shard health + fault-domain counters, the
//	                        serving-edge shed counters, and (with -heatmap)
//	                        the hottest contended leaves
//
// Overload protection (the serving edge must shed, not queue): any
// request may instead draw
//
//	BUSY <reason>
//
// when the server is saturated — the in-flight admission semaphore is
// full (-maxinflight), or one connection pipelined more than -maxburst
// requests without draining its replies. A connection beyond -maxconns
// is answered "BUSY too many connections" and closed at accept time.
// BUSY is a complete reply: the request was NOT executed, and the client
// should back off and retry. STATS and QUIT are exempt from admission so
// the server stays observable while saturated. Per-connection
// -read-timeout/-write-timeout deadlines bound how long a dead or
// glacial client can hold a connection slot.
//
// Run with no arguments for a self-contained demo: the server starts on a
// loopback port, a handful of concurrent clients apply a contended
// workload through real sockets, and the cluster's HTM statistics are
// printed. Run with -listen :7070 to serve interactively (e.g. with nc).
//
// With -durable DIR every acknowledged PUT/DEL is crash-durable: writes
// group-commit through the owning shard's write-ahead log under
// DIR/shard-<i> and are replayed on the next start, which also verifies
// the cluster snapshot barrier (a shard rolled back behind a committed
// cluster snapshot refuses to serve). SIGINT/SIGTERM triggers a graceful
// shutdown: the listener closes, in-flight requests drain (bounded by
// -drain), every shard's WAL is flushed, and the process exits 0.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eunomia"
	"eunomia/internal/vclock"
	"eunomia/internal/workload"
)

var (
	listen     = flag.String("listen", "", "address to serve on (empty = run the built-in demo)")
	shards     = flag.Int("shards", 4, "number of independent tree shards the key space is partitioned across; when the flag is not set, a durable cluster adopts whatever topology its store recorded (RESHARD survives restarts)")
	durableDir = flag.String("durable", "", "directory for the write-ahead log and snapshots (empty = in-memory only)")
	snapBytes  = flag.Int64("snapshot-bytes", 16<<20, "WAL bytes between automatic snapshots (durable mode)")
	drainFor   = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline for in-flight connections")
	heatmap    = flag.Bool("heatmap", false, "enable the per-leaf contention heatmap (surfaced in STATS)")

	maxConns    = flag.Int("maxconns", 1024, "max concurrent connections; excess connections get BUSY and are closed (0 = unlimited)")
	maxInflight = flag.Int("maxinflight", 256, "max cluster requests executing at once; excess requests get BUSY instead of queueing (0 = unlimited)")
	maxBurst    = flag.Int("maxburst", 64, "max pipelined requests one connection may have outstanding; excess requests in the burst get BUSY (0 = unlimited)")
	readTimeout = flag.Duration("read-timeout", 5*time.Minute, "per-connection read deadline: a client idle longer is disconnected (0 = none)")
	writeTo     = flag.Duration("write-timeout", 10*time.Second, "per-connection write deadline for each reply flush (0 = none)")
)

// maxScan bounds one SCAN reply; a request like "SCAN 0 18446744073709551615"
// must not convert to a negative (or effectively unbounded) iteration count.
const maxScan = 4096

// maxLineBytes bounds one request line; a longer line (no newline within
// the read buffer) tears down the offending connection.
const maxLineBytes = 64 << 10

// limits is the serving-edge overload policy: shed (fast BUSY) instead
// of queueing, and never let one client monopolize the edge. Zero fields
// disable the corresponding limit.
type limits struct {
	maxConns     int           // concurrent connections before accept-time BUSY
	maxInflight  int           // cluster requests executing at once before BUSY
	maxBurst     int           // pipelined requests per connection before BUSY
	readTimeout  time.Duration // per-connection idle read deadline
	writeTimeout time.Duration // per-reply flush deadline
}

// defaultLimits mirrors the flag defaults for servers built in tests.
func defaultLimits() limits {
	return limits{maxConns: 1024, maxInflight: 256, maxBurst: 64,
		readTimeout: 5 * time.Minute, writeTimeout: 10 * time.Second}
}

type server struct {
	// store is the data plane: every GET/PUT/DEL/SCAN/SYNC/SNAPSHOT goes
	// through the unified Store/Handle API, so the same server code can
	// front a single *eunomia.DB or a sharded *eunomia.Cluster. The
	// cluster-only verbs (RESHARD, the STATS topology/health sections)
	// type-assert for the concrete Cluster.
	store    eunomia.Store
	lim      limits
	inflight chan struct{} // admission semaphore; nil when unlimited
	requests atomic.Uint64

	// Serving-edge shed counters (surfaced in STATS).
	busyShed      atomic.Uint64 // BUSY replies: admission full or burst cap
	connsRejected atomic.Uint64 // connections refused at accept time

	closing atomic.Bool
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
}

func newServer(st eunomia.Store) *server { return newServerLimits(st, defaultLimits()) }

// cluster returns the concrete Cluster behind the store, or nil when the
// server fronts a single DB.
func (s *server) cluster() *eunomia.Cluster {
	c, _ := s.store.(*eunomia.Cluster)
	return c
}

func newServerLimits(st eunomia.Store, lim limits) *server {
	s := &server{store: st, lim: lim, conns: map[net.Conn]struct{}{}}
	if lim.maxInflight > 0 {
		s.inflight = make(chan struct{}, lim.maxInflight)
	}
	return s
}

// serveConn handles one client connection; each connection gets its own
// cluster Session (one tree Thread per shard), mirroring a per-connection
// worker. A panic while serving one client tears down that connection only
// — the server and every other client keep running.
func (s *server) serveConn(conn net.Conn) {
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			log.Printf("kvserver: connection %s: recovered: %v", conn.RemoteAddr(), r)
		}
	}()
	th := s.store.NewHandle()
	defer func() { th.Close() }() // STATS swaps th for a fresh handle
	rd := bufio.NewReaderSize(conn, maxLineBytes)
	out := bufio.NewWriter(conn)
	defer out.Flush()
	burst := 0
	for {
		if s.lim.readTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.lim.readTimeout))
		}
		line, err := rd.ReadSlice('\n')
		if err != nil {
			// A line with no newline inside the whole read buffer is an
			// oversized request: tear down this connection only. Reads that
			// time out (idle client past -read-timeout) or fail end the
			// connection the same way; the listener and every other client
			// keep running.
			switch {
			case err == bufio.ErrBufferFull:
				log.Printf("kvserver: connection %s: request line exceeds %d bytes", conn.RemoteAddr(), maxLineBytes)
			case err != io.EOF:
				log.Printf("kvserver: connection %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.requests.Add(1)
		// Burst accounting: a request is part of a pipelined burst when
		// more input is already buffered behind it — the client is not
		// reading replies between requests. A drained buffer resets the
		// burst.
		if rd.Buffered() > 0 {
			burst++
		} else {
			burst = 0
		}
		fields := strings.Fields(string(line))
		if len(fields) == 0 {
			continue
		}
		if s.lim.writeTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.lim.writeTimeout))
		}
		verb := strings.ToUpper(fields[0])
		admitted := false
		switch verb {
		case "STATS", "QUIT":
			// Exempt from admission: the edge must stay observable (and
			// connections closable) while it is shedding load.
		default:
			if s.lim.maxBurst > 0 && burst > s.lim.maxBurst {
				s.busyShed.Add(1)
				fmt.Fprintln(out, "BUSY pipelined burst limit")
				out.Flush()
				continue
			}
			if s.inflight != nil {
				select {
				case s.inflight <- struct{}{}:
					admitted = true
				default:
					// Shed, don't queue: a fast BUSY keeps the reply loop
					// bounded no matter how deep the arrival backlog is.
					s.busyShed.Add(1)
					fmt.Fprintln(out, "BUSY server overloaded")
					out.Flush()
					continue
				}
			}
		}
		switch verb {
		case "GET":
			if k, err := parse1(fields); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else if v, ok, err := th.Get(k); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else if ok {
				fmt.Fprintf(out, "VALUE %d\n", v)
			} else {
				fmt.Fprintln(out, "NOT_FOUND")
			}
		case "PUT":
			k, v, err := parse2(fields)
			if err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
				break
			}
			// OK is sent only after Put returns, which in durable mode
			// means only after the write is on disk.
			if err := th.Put(k, v); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else {
				fmt.Fprintln(out, "OK")
			}
		case "DEL":
			if k, err := parse1(fields); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else if ok, err := th.Delete(k); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else if ok {
				fmt.Fprintln(out, "OK")
			} else {
				fmt.Fprintln(out, "NOT_FOUND")
			}
		case "SCAN":
			from, n, err := parse2(fields)
			if err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
				break
			}
			if n > maxScan {
				n = maxScan
			}
			if _, err := th.Scan(from, int(n), func(k, v uint64) bool {
				fmt.Fprintf(out, "PAIR %d %d\n", k, v)
				return true
			}); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
				break
			}
			fmt.Fprintln(out, "END")
		case "SYNC":
			if err := s.store.Sync(); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else {
				fmt.Fprintln(out, "OK")
			}
		case "SNAPSHOT":
			if err := s.store.Snapshot(); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else {
				fmt.Fprintln(out, "OK")
			}
		case "RESHARD":
			// Blocks this connection for the whole migration; every other
			// connection keeps serving through the epoched routing table.
			c, ok := s.store.(*eunomia.Cluster)
			if !ok {
				fmt.Fprintln(out, "ERR store is not a cluster")
			} else if n, err := parse1(fields); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else if n > 64 {
				fmt.Fprintln(out, "ERR cluster supports <= 64 shards")
			} else if err := c.Reshard(int(n)); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else {
				fmt.Fprintln(out, "OK")
			}
		case "STATS":
			// One coherent snapshot for the whole server: every shard,
			// every connection's threads — not just this connection. The
			// base sections come from the unified Store metrics; the
			// per-shard health and topology sections exist only when the
			// store is a Cluster. A handle reports its counts every 64
			// ops and the rest when it closes, so this connection closes
			// its own handle first and carries on with a fresh one: its
			// writes are in the line it asked for. Another connection's
			// show once it has done 64 more ops or closed.
			th.Close()
			th = s.store.NewHandle()
			m := s.store.Metrics()
			cluster, _ := s.store.(*eunomia.Cluster)
			nshards := 1
			if cluster != nil {
				nshards = cluster.Shards()
			}
			fmt.Fprintf(out, "STATS shards=%d commits=%d aborts=%d fallbacks=%d",
				nshards, m.Tx.Commits, m.Tx.Aborts, m.Tx.Fallbacks)
			for _, reason := range slices.Sorted(maps.Keys(m.Tx.AbortsByReason)) {
				fmt.Fprintf(out, " abort[%s]=%d", reason, m.Tx.AbortsByReason[reason])
			}
			if ds := m.Durability; ds.Enabled {
				fmt.Fprintf(out, " flushes=%d batch_avg=%.1f flush_p99_us=%d snapshots=%d replayed=%d",
					ds.Flushes, ds.AvgBatch, ds.FlushP99Ns/1000, ds.Snapshots, ds.ReplayedFrames)
			}
			if cluster != nil {
				cm := cluster.ClusterMetrics()
				// Fault domains (one letter per shard: H/D/F/R) + serving edge.
				states := make([]byte, cm.Shards)
				for i, h := range cm.Health {
					states[i] = h.State.String()[0] - 'a' + 'A'
				}
				fmt.Fprintf(out, " health=%s trips=%d repairs=%d shed=%d retries=%d retries_denied=%d busy=%d conns_rejected=%d",
					states, cm.Fault.Trips, cm.Fault.Repairs, cm.Fault.ShedOps,
					cm.Fault.Retries, cm.Fault.RetriesDenied, s.busyShed.Load(), s.connsRejected.Load())
				tm := cm.Topology
				fmt.Fprintf(out, " epoch=%d gen=%d migrating=%v moves_done=%d redirects=%d",
					tm.Epoch, tm.RoutingGen, tm.Migrating, tm.MovesDone, tm.Redirects)
			}
			if c := m.Contention; c.Enabled {
				fmt.Fprintf(out, " heat_aborts=%d", c.AbortsSeen)
				for i, l := range c.HotLeaves {
					if i == 3 {
						break
					}
					site := "line"
					if l.Annotated {
						site = "leaf"
					}
					fmt.Fprintf(out, " hot[%d]=%s:%#x:%d", i, site, l.ID, l.Total)
				}
			}
			fmt.Fprintln(out)
		case "QUIT":
			return
		default:
			fmt.Fprintf(out, "ERR unknown command %q\n", fields[0])
		}
		if admitted {
			<-s.inflight
		}
		out.Flush()
	}
}

func parse1(f []string) (uint64, error) {
	if len(f) != 2 {
		return 0, fmt.Errorf("want 1 argument")
	}
	return strconv.ParseUint(f[1], 10, 64)
}

func parse2(f []string) (uint64, uint64, error) {
	if len(f) != 3 {
		return 0, 0, fmt.Errorf("want 2 arguments")
	}
	a, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.ParseUint(f[2], 10, 64)
	return a, b, err
}

func (s *server) run(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		if s.lim.maxConns > 0 && len(s.conns) >= s.lim.maxConns {
			// Refuse at the door with a fast BUSY: a connection the server
			// cannot serve must not sit in the accept queue soaking up a
			// worker and a session.
			s.mu.Unlock()
			s.connsRejected.Add(1)
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			fmt.Fprintln(conn, "BUSY too many connections")
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// shutdown drains the server gracefully: stop accepting, let in-flight
// connections finish (up to drain — after that their reads are cancelled),
// then flush and close every shard. A failing shard does not stop the
// others from draining — Cluster.Close closes them all and joins the
// errors. Every acknowledged write is on disk when shutdown returns.
func (s *server) shutdown(ln net.Listener, drain time.Duration) {
	s.closing.Store(true)
	ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drain):
		s.mu.Lock()
		for c := range s.conns {
			c.SetReadDeadline(time.Now()) // unblock idle readers
		}
		s.mu.Unlock()
		<-done
	}
	if err := s.store.Close(); err != nil {
		log.Printf("kvserver: close: %v", err)
	}
}

func main() {
	flag.Parse()
	opts := eunomia.Options{ArenaWords: 1 << 22,
		Observability: eunomia.Observability{Heatmap: *heatmap}}
	if *durableDir != "" {
		opts.Durability = eunomia.Durability{
			Dir:           *durableDir, // cluster root; shard i logs under shard-<i>
			SnapshotBytes: *snapBytes,
		}
	}
	// An explicit -shards is a contract (mismatch with a durable store's
	// recorded topology fails with ErrTopologyMismatch); leaving it unset
	// adopts whatever topology the store recorded, so a cluster resharded
	// in a previous run reopens at its committed width.
	nshards := 0
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			nshards = *shards
		}
	})
	c, err := eunomia.OpenCluster(eunomia.ClusterOptions{Shards: nshards, Shard: opts})
	if err != nil {
		log.Fatal(err)
	}
	if ds := c.ClusterMetrics().Agg.Durability; ds.Enabled && (ds.SnapshotPairs > 0 || ds.ReplayedFrames > 0) {
		fmt.Printf("kvserver recovered %d snapshot pairs + %d log frames in %.2f ms across %d shards\n",
			ds.SnapshotPairs, ds.ReplayedFrames, float64(ds.RecoveryNs)/1e6, c.Shards())
	}
	s := newServerLimits(c, limits{
		maxConns:     *maxConns,
		maxInflight:  *maxInflight,
		maxBurst:     *maxBurst,
		readTimeout:  *readTimeout,
		writeTimeout: *writeTo,
	})

	addr := *listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	go s.run(ln)
	fmt.Printf("kvserver listening on %s (%s x %d shards)\n", ln.Addr(), c.DB(0).Kind(), c.Shards())

	if *listen != "" {
		// Serve until SIGINT/SIGTERM, then drain and exit cleanly.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		got := <-sig
		fmt.Printf("kvserver: %v: draining (deadline %s)\n", got, *drainFor)
		s.shutdown(ln, *drainFor)
		fmt.Println("kvserver: shutdown complete")
		return
	}

	// Built-in demo: concurrent clients over real sockets.
	const clients, requests = 4, 2_000
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			defer conn.Close()
			in := bufio.NewScanner(conn)
			out := bufio.NewWriter(conn)
			stream := workload.NewStream(
				workload.Spec{Kind: workload.Zipfian, N: 5_000, Theta: 0.9},
				workload.Mix{GetPct: 50, PutPct: 45, DeletePct: 3, ScanPct: 2, ScanLen: 5})
			rng := vclock.NewRand(uint64(c) + 11)
			for i := 0; i < requests; i++ {
				op := stream.Next(rng)
				switch op.Kind {
				case workload.OpGet:
					fmt.Fprintf(out, "GET %d\n", op.Key)
				case workload.OpPut:
					fmt.Fprintf(out, "PUT %d %d\n", op.Key, op.Key*7)
				case workload.OpDelete:
					fmt.Fprintf(out, "DEL %d\n", op.Key)
				case workload.OpScan:
					fmt.Fprintf(out, "SCAN %d %d\n", op.Key, op.ScanLen)
				}
				out.Flush()
				// Read the reply: scans end with "END"; every other
				// command answers with a single line.
				if op.Kind == workload.OpScan {
					for in.Scan() && in.Text() != "END" {
					}
				} else if !in.Scan() {
					log.Fatal("connection closed early")
				}
			}
			fmt.Fprintln(out, "QUIT")
			out.Flush()
		}(c)
	}
	wg.Wait()
	fmt.Printf("served %d requests from %d concurrent clients\n", s.requests.Load(), clients)

	// Verify a few keys through a fresh connection.
	conn, _ := net.Dial("tcp", ln.Addr().String())
	fmt.Fprintf(conn, "PUT 1 42\nGET 1\nSTATS\nQUIT\n")
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		fmt.Println("  reply:", sc.Text())
	}
	conn.Close()
	s.shutdown(ln, *drainFor)
}
