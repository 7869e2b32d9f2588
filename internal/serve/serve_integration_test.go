// Integration tests for the serving tier: a real Server on a loopback
// listener over a real cluster, driven through the wire protocol by Client.
// They pin the acceptance contract: served results — fresh, bypassed,
// result-cache hit, prepared, single-flight shared — are byte-identical to
// a direct cluster.Run of the same query.
package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/queries"
	"hsqp/internal/ref"
	"hsqp/internal/ser"
	"hsqp/internal/serve"
	"hsqp/internal/storage"
	"hsqp/internal/tpch"
)

const (
	testSF   = 0.01
	testSeed = 42
)

var (
	dbOnce sync.Once
	testDB *tpch.Database
)

func getDB() *tpch.Database {
	dbOnce.Do(func() { testDB = tpch.Generate(testSF, testSeed) })
	return testDB
}

func newServedCluster(t testing.TB) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Servers:          3,
		WorkersPerServer: 4,
		Transport:        cluster.RDMA,
		Scheduling:       true,
		TimeScale:        0.005,
		MorselSize:       4096,
		MessageSize:      64 * 1024,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	c.LoadTPCH(getDB(), false)
	return c
}

// startServer runs a serving tier over a fresh cluster on a loopback
// listener and returns its address plus the underlying pieces.
func startServer(t testing.TB, mod func(*serve.Config)) (addr string, srv *serve.Server, c *cluster.Cluster) {
	t.Helper()
	c = newServedCluster(t)
	cfg := serve.Config{Cluster: c, SF: testSF, Seed: testSeed}
	if mod != nil {
		mod(&cfg)
	}
	srv = serve.New(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Shutdown)
	return lis.Addr().String(), srv, c
}

// TestServedResultsMatchDirect is the conformance acceptance test: for
// Q1/Q5/Q12, the result served over the wire — fresh, from the result
// cache, cache-bypassed, and via a prepared statement — is byte-identical
// (canonical row encoding) to a direct cluster.Run.
func TestServedResultsMatchDirect(t *testing.T) {
	addr, _, c := startServer(t, nil)
	cl, err := serve.Dial(addr, "conformance")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	for _, qn := range []int{1, 5, 12} {
		stmt := map[int]string{1: "q1", 5: "q5", 12: "q12"}[qn]
		direct, _, err := c.RunContext(context.Background(), queries.MustBuild(qn, queries.Params{SF: testSF}))
		if err != nil {
			t.Fatalf("direct %s: %v", stmt, err)
		}
		want := ser.CanonicalRows(direct)

		fresh, stats, err := cl.Exec(stmt)
		if err != nil {
			t.Fatalf("served %s: %v", stmt, err)
		}
		if stats.ResultHit {
			t.Fatalf("%s: first execution reported a result-cache hit", stmt)
		}
		if got := ser.CanonicalRows(fresh); !bytes.Equal(got, want) {
			t.Fatalf("%s: served result differs from direct run (%d vs %d rows)", stmt, fresh.Rows(), direct.Rows())
		}

		cached, stats, err := cl.Exec(stmt)
		if err != nil {
			t.Fatalf("cached %s: %v", stmt, err)
		}
		if !stats.ResultHit {
			t.Fatalf("%s: repeat execution missed the result cache", stmt)
		}
		if got := ser.CanonicalRows(cached); !bytes.Equal(got, want) {
			t.Fatalf("%s: cached result differs from direct run", stmt)
		}

		bypassed, stats, err := cl.ExecWithOpts(stmt, serve.ExecOpts{BypassResultCache: true})
		if err != nil {
			t.Fatalf("bypass %s: %v", stmt, err)
		}
		if stats.ResultHit {
			t.Fatalf("%s: bypassed execution reported a result-cache hit", stmt)
		}
		if got := ser.CanonicalRows(bypassed); !bytes.Equal(got, want) {
			t.Fatalf("%s: bypassed result differs from direct run", stmt)
		}

		st, err := cl.Prepare(stmt)
		if err != nil {
			t.Fatalf("prepare %s: %v", stmt, err)
		}
		if st.Schema().Len() != direct.Schema.Len() {
			t.Fatalf("%s: prepared schema has %d fields, want %d", stmt, st.Schema().Len(), direct.Schema.Len())
		}
		prepped, _, err := st.Exec()
		if err != nil {
			t.Fatalf("prepared exec %s: %v", stmt, err)
		}
		if got := ser.CanonicalRows(prepped); !bytes.Equal(got, want) {
			t.Fatalf("%s: prepared result differs from direct run", stmt)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close stmt %s: %v", stmt, err)
		}
	}
}

// TestServingBypassedRepeatExecutes: every execution of a statement with
// the result cache bypassed — the first and each repeat alike — runs the
// query, compile included; nothing compiled is kept between requests.
func TestServingBypassedRepeatExecutes(t *testing.T) {
	addr, srv, _ := startServer(t, nil)
	cl, err := serve.Dial(addr, "t")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	for i := 0; i < 3; i++ {
		_, stats, err := cl.ExecWithOpts("q1", serve.ExecOpts{BypassResultCache: true})
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if stats.ResultHit || stats.Shared {
			t.Fatalf("bypassed execution %d reported a result hit: %+v", i, stats)
		}
		if stats.Compile <= 0 || stats.Exec <= 0 {
			t.Fatalf("bypassed execution %d reported compile %s, exec %s; want both > 0", i, stats.Compile, stats.Exec)
		}
	}
	if st := srv.ResultCacheStats(); st.Hits+st.Misses+st.Shared != 0 {
		t.Fatalf("bypassed requests touched the result cache: %+v", st)
	}
}

// TestServedStatementFollowsReload: the result cache stops answering with
// the previous epoch's bytes once a table is reloaded — the next request
// executes on the new data, and only then do repeats hit again.
func TestServedStatementFollowsReload(t *testing.T) {
	addr, _, c := startServer(t, nil)
	cl, err := serve.Dial(addr, "t")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	if _, _, err := cl.Exec("q6"); err != nil {
		t.Fatalf("exec before reload: %v", err)
	}
	if _, stats, err := cl.Exec("q6"); err != nil || !stats.ResultHit {
		t.Fatalf("repeat before reload: result hit %v, err %v; want a hit", stats.ResultHit, err)
	}

	// Q6 reads lineitem only, so the reference runs on the other seed's
	// database as a whole.
	reloaded := tpch.Generate(testSF, testSeed+1)
	c.LoadTable("lineitem", reloaded.Tables["lineitem"], storage.PlacementChunked, 0)
	want, err := ref.Run(6, reloaded, testSF)
	if err != nil {
		t.Fatalf("reference q6: %v", err)
	}
	old, err := ref.Run(6, getDB(), testSF)
	if err != nil {
		t.Fatalf("reference q6 on the first database: %v", err)
	}
	if fmt.Sprint(want.Rows) == fmt.Sprint(old.Rows) {
		t.Fatal("both seeds give the same q6 result; the test cannot tell the epochs apart")
	}

	res, stats, err := cl.Exec("q6")
	if err != nil {
		t.Fatalf("exec after reload: %v", err)
	}
	if stats.ResultHit {
		t.Fatal("request after a table reload was answered from the result cache")
	}
	if res.Rows() != 1 || fmt.Sprint(res.Row(0)) != fmt.Sprint([]any(want.Rows[0])) {
		t.Fatalf("q6 after reload: %d rows, first %v; reference on the new data has %v", res.Rows(), res.Row(0), want.Rows)
	}
	res, stats, err = cl.Exec("q6")
	if err != nil || !stats.ResultHit {
		t.Fatalf("repeat after reload: result hit %v, err %v; want a hit", stats.ResultHit, err)
	}
	if fmt.Sprint(res.Row(0)) != fmt.Sprint([]any(want.Rows[0])) {
		t.Fatalf("cached q6 after reload: %v, want %v", res.Row(0), want.Rows[0])
	}
}

// TestOversizedRequestFrame: a client that advertises a frame beyond the
// request bound — before or after the handshake — or names a tenant beyond
// the name bound gets an Error frame and a closed connection (an oversized
// payload is neither read nor allocated for), and the server goes on
// serving other clients.
func TestOversizedRequestFrame(t *testing.T) {
	addr, _, _ := startServer(t, nil)
	// Frame types and layouts as in the package doc: 0x01 Hello (version,
	// tenant string), 0x09 Error (message string).
	hello := func(tenant string) []byte {
		body := append([]byte{0x01, serve.ProtoVersion}, binary.AppendUvarint(nil, uint64(len(tenant)))...)
		body = append(body, tenant...)
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	oversized := binary.LittleEndian.AppendUint32(nil, 64<<10+1)

	for _, tc := range []struct {
		name       string
		afterHello bool
		send       []byte
		want       string
	}{
		{"frame before Hello", false, oversized, "too large"},
		{"frame after Hello", true, oversized, "too large"},
		{"1 KiB tenant name", false, hello(strings.Repeat("t", 1024)), "tenant name"},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		readFrame := func() (byte, []byte) {
			t.Helper()
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				t.Fatalf("%s: reading frame header: %v", tc.name, err)
			}
			body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(conn, body); err != nil {
				t.Fatalf("%s: reading frame body: %v", tc.name, err)
			}
			return body[0], body[1:]
		}
		if tc.afterHello {
			conn.Write(hello(""))
			if typ, _ := readFrame(); typ != 0x02 {
				t.Fatalf("handshake answered with frame 0x%02x, want HelloOK", typ)
			}
		}
		conn.Write(tc.send)
		typ, payload := readFrame()
		if typ != 0x09 || !strings.Contains(string(payload), tc.want) {
			t.Fatalf("%s: answered with frame 0x%02x %q, want an Error frame saying %q", tc.name, typ, payload, tc.want)
		}
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: connection still open after the Error frame (read %d bytes, err %v)", tc.name, n, err)
		}
		conn.Close()
	}

	cl, err := serve.Dial(addr, "t")
	if err != nil {
		t.Fatalf("dial after oversized frames: %v", err)
	}
	defer cl.Close()
	if _, _, err := cl.Exec("q6"); err != nil {
		t.Fatalf("exec after oversized frames: %v", err)
	}
}

// TestServingSingleFlight: N concurrent identical requests over separate
// connections execute exactly once; every response is byte-identical.
func TestServingSingleFlight(t *testing.T) {
	addr, srv, _ := startServer(t, nil)
	const n = 8
	var wg sync.WaitGroup
	canon := make([][]byte, n)
	hits := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := serve.Dial(addr, "t")
			if err != nil {
				errs[i] = err
				return
			}
			defer cl.Close()
			res, stats, err := cl.Exec("q5")
			if err != nil {
				errs[i] = err
				return
			}
			canon[i] = ser.CanonicalRows(res)
			hits[i] = stats.ResultHit
		}(i)
	}
	wg.Wait()
	executed := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !hits[i] {
			executed++
		}
		if !bytes.Equal(canon[i], canon[0]) {
			t.Fatalf("client %d received different bytes", i)
		}
	}
	if executed != 1 {
		t.Fatalf("%d of %d concurrent identical requests executed, want exactly 1", executed, n)
	}
	if st := srv.ResultCacheStats(); st.Misses != 1 {
		t.Fatalf("result cache misses=%d, want 1", st.Misses)
	}
}

// TestServingErrorKeepsConnection: a bad statement returns an Error frame
// and the connection stays usable.
func TestServingErrorKeepsConnection(t *testing.T) {
	addr, _, _ := startServer(t, nil)
	cl, err := serve.Dial(addr, "t")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	if _, _, err := cl.Exec("q99"); err == nil || !strings.Contains(err.Error(), "statement") {
		t.Fatalf("bad statement returned %v, want statement error", err)
	}
	if _, err := cl.Prepare("nope"); err == nil {
		t.Fatal("bad prepare succeeded")
	}
	if _, _, err := cl.Exec("q1"); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

// TestServingHandshake: the server advertises SF, seed and the tenant's
// configured weight; a version-mismatched client is rejected.
func TestServingHandshake(t *testing.T) {
	addr, _, _ := startServer(t, func(cfg *serve.Config) {
		cfg.Tenants = map[string]int{"heavy": 4}
	})
	cl, err := serve.Dial(addr, "heavy")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if cl.Info.SF != testSF || cl.Info.Seed != testSeed || cl.Info.Weight != 4 {
		t.Fatalf("HelloOK advertised %+v, want sf=%v seed=%d weight=4", cl.Info, testSF, testSeed)
	}
	cl2, err := serve.Dial(addr, "unknown-tenant")
	if err != nil {
		t.Fatalf("dial unknown tenant: %v", err)
	}
	defer cl2.Close()
	if cl2.Info.Weight != 1 {
		t.Fatalf("unknown tenant weight %d, want 1", cl2.Info.Weight)
	}
}

// TestServerShutdownDrain: a client-initiated Shutdown completes in-flight
// work, closes Done, and later connections are refused.
func TestServerShutdownDrain(t *testing.T) {
	addr, srv, _ := startServer(t, nil)
	cl, err := serve.Dial(addr, "t")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if _, _, err := cl.Exec("q12"); err != nil {
		t.Fatalf("exec: %v", err)
	}
	if err := cl.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("server did not finish draining")
	}
	if _, err := serve.Dial(addr, "t"); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestShutdownFailsQueuedRequests: requests waiting for the one execution
// slot when the server drains are answered "server draining" — the
// session's own close error never reaches the wire.
func TestShutdownFailsQueuedRequests(t *testing.T) {
	addr, srv, _ := startServer(t, func(cfg *serve.Config) { cfg.Slots = 1 })
	const clients = 6
	served := make(chan struct{}, 1)
	last := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cl, err := serve.Dial(addr, "t")
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer cl.Close()
		go func() {
			for {
				if _, _, err := cl.ExecWithOpts("q1", serve.ExecOpts{BypassResultCache: true}); err != nil {
					last <- err
					return
				}
				select {
				case served <- struct{}{}:
				default:
				}
			}
		}()
	}
	<-served // the slot is contended from here on
	srv.Shutdown()
	draining := 0
	for i := 0; i < clients; i++ {
		err := <-last
		if strings.Contains(err.Error(), cluster.ErrSessionClosed.Error()) {
			t.Fatalf("client saw the session's error on the wire: %v", err)
		}
		if strings.Contains(err.Error(), serve.ErrDraining.Error()) {
			draining++
		}
	}
	if draining == 0 {
		t.Fatal("no request was answered with ErrDraining")
	}
}
