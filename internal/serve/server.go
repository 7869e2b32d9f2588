package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/obs"
	"hsqp/internal/queries"
	"hsqp/internal/ser"
	"hsqp/internal/storage"
)

// ErrDraining is returned to queued requests when the server drains:
// in-flight queries complete, waiting ones fail fast.
var ErrDraining = errors.New("serve: server draining")

// DefaultMaxQueued bounds each tenant's admission queue.
const DefaultMaxQueued = 256

// Config configures a serving tier over one cluster.
type Config struct {
	// Cluster executes the queries; the caller keeps ownership (the server
	// never closes it).
	Cluster *cluster.Cluster
	// SF is the scale factor of the loaded database (statement parameters
	// and the HelloOK advertisement).
	SF float64
	// Seed is the generator seed of the loaded database, advertised to
	// clients so they can regenerate it for verification.
	Seed uint64
	// Tenants maps tenant name → weight for weighted-fair admission.
	// Unknown tenants are admitted with weight 1. It, Slots and
	// MaxQueuedPerTenant are handed to the session as
	// cluster.SessionConfig{Tenants, MaxConcurrent, MaxQueued}.
	Tenants map[string]int
	// Slots is how many queries may execute concurrently (default
	// cluster.DefaultMaxConcurrent).
	Slots int
	// MaxQueuedPerTenant bounds each tenant's admission queue (default
	// DefaultMaxQueued).
	MaxQueuedPerTenant int
	// ResultCacheBytes is the result cache budget (default
	// DefaultResultCacheBytes); DisableResultCache turns the cache off
	// entirely (every request executes).
	ResultCacheBytes   int64
	DisableResultCache bool
	// SlowQueryThreshold enables the slow-query log: every request whose
	// total latency (queue + compile + execute + streaming) reaches the
	// threshold is written to SlowQueryLog as one structured line with the
	// phase split and wire bytes. Zero disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer
}

// Server is the network front door: it owns the listener, the result
// cache, the per-tenant latency stats and a cluster.Session (which does the
// admission), and serves any number of concurrent client connections.
type Server struct {
	cfg     Config
	lat     *tenantLatencies
	session *cluster.Session
	results *ResultCache
	slow    *obs.SlowLog

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	reqWG  sync.WaitGroup // in-flight requests (queued or executing)
	connWG sync.WaitGroup // live connection handlers
	done   chan struct{}  // closed when Shutdown finishes
	doneMu sync.Once
}

// New creates a server over the cluster.
func New(cfg Config) *Server {
	if cfg.MaxQueuedPerTenant <= 0 {
		cfg.MaxQueuedPerTenant = DefaultMaxQueued
	}
	s := &Server{
		cfg: cfg,
		lat: newTenantLatencies(cfg.Tenants),
		session: cfg.Cluster.NewSession(cluster.SessionConfig{
			MaxConcurrent: cfg.Slots,
			MaxQueued:     cfg.MaxQueuedPerTenant,
			Tenants:       cfg.Tenants,
		}),
		conns: map[net.Conn]struct{}{},
		done:  make(chan struct{}),
	}
	if !cfg.DisableResultCache {
		s.results = NewResultCache(cfg.ResultCacheBytes)
	}
	if cfg.SlowQueryThreshold > 0 {
		w := cfg.SlowQueryLog
		if w == nil {
			w = os.Stderr
		}
		s.slow = obs.NewSlowLog(w, cfg.SlowQueryThreshold)
	}
	s.registerCollect()
	return s
}

// Serve accepts connections on lis until Shutdown closes it. It always
// returns a non-nil error (net.ErrClosed after a clean shutdown).
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return net.ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Shutdown drains the server gracefully: stop accepting, fail queued
// requests fast (ErrDraining), let in-flight queries complete and their
// responses flush, then close every connection. Safe to call more than
// once; Done is closed when the first call finishes.
func (s *Server) Shutdown() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	lis := s.lis
	s.mu.Unlock()
	if already {
		<-s.done
		return
	}
	if lis != nil {
		lis.Close()
	}
	s.session.Close() // queued queries fail fast, running ones complete
	s.reqWG.Wait()    // their responses flush
	// Snapshot under the lock, close outside it: Close on a hung
	// connection may block, and connection handlers take s.mu on their
	// exit path — closing under the lock can deadlock the drain.
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close() // unblock idle readers
	}
	s.connWG.Wait()
	s.doneMu.Do(func() { close(s.done) })
}

// Done is closed once a Shutdown completes.
func (s *Server) Done() <-chan struct{} { return s.done }

// TenantStats returns the per-tenant latency snapshot, with each tenant's
// weight and queue depth read from the session.
func (s *Server) TenantStats() []TenantStats {
	out := s.lat.Snapshot()
	for i := range out {
		out[i].Weight, out[i].Queued = s.session.TenantQueue(out[i].Tenant)
	}
	return out
}

// ResultCacheStats snapshots the result cache counters (zero value when
// the cache is disabled).
func (s *Server) ResultCacheStats() ResultCacheStats {
	if s.results == nil {
		return ResultCacheStats{}
	}
	return s.results.Stats()
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.connWG.Done()
	}()
	mConns.Add(1)
	defer mConns.Add(-1)
	br := bufio.NewReaderSize(countingReader{r: conn}, 64<<10)
	bw := bufio.NewWriterSize(countingWriter{w: conn}, 64<<10)

	tenant, err := s.handshake(br, bw)
	if err != nil {
		return
	}

	handles := map[uint32]int{} // prepared-statement handle → query number
	var nextHandle uint32

	for {
		typ, payload, err := s.readRequest(br, bw)
		if err != nil {
			return
		}
		if !s.beginRequest() {
			s.writeError(bw, ErrDraining)
			return
		}
		switch typ {
		case framePrepare:
			n, schema, perr := s.prepare(payload)
			if perr == nil {
				nextHandle++
				handles[nextHandle] = n
				perr = writeFrame(bw, framePrepared, putSchema(putU32(nil, nextHandle), schema))
			}
			err = s.finishRequest(bw, perr)
		case frameExec:
			err = s.handleExec(bw, tenant, payload, handles)
		case frameCloseStmt:
			h, _, perr := getU32(payload)
			if perr == nil {
				delete(handles, h)
				perr = writeFrame(bw, frameOK, nil)
			}
			err = s.finishRequest(bw, perr)
		case frameShutdown:
			writeFrame(bw, frameOK, nil)
			bw.Flush()
			s.reqWG.Done()
			go s.Shutdown()
			return
		default:
			err = s.finishRequest(bw, fmt.Errorf("serve: unknown frame type 0x%02x", typ))
		}
		if err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// readRequest reads one client frame under the request bound. A length
// beyond it is answered with an Error frame before the caller closes the
// connection, as it does on every read error: past an unread payload the
// stream cannot be resynchronised.
func (s *Server) readRequest(br *bufio.Reader, bw *bufio.Writer) (byte, []byte, error) {
	typ, payload, err := readFrame(br, maxRequestFrame)
	if errors.Is(err, errFrameTooLarge) {
		s.writeError(bw, err)
	}
	return typ, payload, err
}

// prepare handles a Prepare frame: it validates the statement by compiling
// it on every server and returns its query number and result schema.
// Nothing compiled is kept — every Exec of the handle builds and compiles
// again — so the handle saves a client only the statement text.
func (s *Server) prepare(payload []byte) (int, *storage.Schema, error) {
	stmt, _, err := getString(payload)
	if err != nil {
		return 0, nil, err
	}
	n, err := ParseStatement(stmt)
	if err != nil {
		return 0, nil, err
	}
	q, err := queries.Build(n, queries.Params{SF: s.cfg.SF})
	if err != nil {
		return 0, nil, err
	}
	p, err := s.cfg.Cluster.Prepare(q)
	if err != nil {
		return 0, nil, err
	}
	return n, p.Schema(), nil
}

// beginRequest registers an in-flight request unless the server drains.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.reqWG.Add(1)
	return true
}

// finishRequest completes a request begun with beginRequest, converting a
// handler error into an Error frame (connection-level write errors
// propagate).
func (s *Server) finishRequest(bw *bufio.Writer, err error) error {
	defer s.reqWG.Done()
	if err == nil {
		return nil
	}
	return s.writeError(bw, err)
}

func (s *Server) writeError(bw *bufio.Writer, err error) error {
	if werr := writeFrame(bw, frameError, putString(nil, err.Error())); werr != nil {
		return werr
	}
	return bw.Flush()
}

func (s *Server) handshake(br *bufio.Reader, bw *bufio.Writer) (string, error) {
	typ, payload, err := s.readRequest(br, bw)
	if err != nil {
		return "", err
	}
	var tenant string
	if typ != frameHello {
		err = errors.New("serve: expected Hello")
	} else {
		tenant, err = parseHello(payload)
	}
	if err != nil {
		s.writeError(bw, err)
		return "", err
	}
	if tenant == "" {
		tenant = "default"
	}
	weight := s.cfg.Tenants[tenant]
	if weight < 1 {
		weight = 1
	}
	out := []byte{ProtoVersion}
	out = putF64(out, s.cfg.SF)
	out = putU64(out, s.cfg.Seed)
	out = putU32(out, uint32(weight))
	if err := writeFrame(bw, frameHelloOK, out); err != nil {
		return "", err
	}
	return tenant, bw.Flush()
}

// doneInfo is what a Done frame reports, plus serve-internal detail for
// the slow-query log (wire bytes and the cache path are not on the wire).
type doneInfo struct {
	rows      uint64
	flags     byte
	queueWait time.Duration
	compile   time.Duration
	exec      time.Duration
	total     time.Duration
	wireBytes uint64
	path      string // executed | result-hit | shared
}

func (s *Server) handleExec(bw *bufio.Writer, tenant string, payload []byte, handles map[uint32]int) error {
	start := time.Now()
	flags, handle, stmt, err := parseExec(payload)
	if err != nil {
		return s.finishRequest(bw, err)
	}
	n, known := handles[handle]
	switch {
	case handle == NoHandle:
		if n, err = ParseStatement(stmt); err != nil {
			return s.finishRequest(bw, err)
		}
	case !known:
		return s.finishRequest(bw, fmt.Errorf("serve: unknown prepared-statement handle %d", handle))
	}
	entry, info, err := s.execStatement(tenant, n, flags&execBypassResultCache != 0)
	if err != nil {
		return s.finishRequest(bw, err)
	}
	info.total = time.Since(start)
	s.lat.Observe(tenant, info.queueWait, info.total)
	mRequests.With(tenant).Inc()
	if s.slow.Observe(obs.SlowQuery{
		Tenant: tenant, Statement: fmt.Sprintf("q%d", n), Rows: int(entry.Rows),
		QueueWait: info.queueWait, Compile: info.compile, Exec: info.exec,
		Total: info.total, WireBytes: info.wireBytes, Path: info.path,
	}) {
		mSlowQueries.Inc()
	}

	// Stream: Schema, Batches, Done.
	if err := writeFrame(bw, frameSchema, entry.SchemaPayload); err != nil {
		return s.finishRequest(bw, err)
	}
	for _, b := range entry.Batches {
		if err := writeFrame(bw, frameBatch, b); err != nil {
			return s.finishRequest(bw, err)
		}
	}
	out := putU64(nil, entry.Rows)
	out = append(out, info.flags)
	out = putU64(out, uint64(info.queueWait))
	out = putU64(out, uint64(info.compile))
	out = putU64(out, uint64(info.exec))
	out = putU64(out, uint64(info.total))
	return s.finishRequest(bw, writeFrame(bw, frameDone, out))
}

// execStatement resolves TPC-H query n through the result cache, or
// executes it when the cache is bypassed or disabled. Entries are keyed on
// (statement, cluster epoch), so a table load or membership change leaves
// the previous epoch's bytes unreachable.
func (s *Server) execStatement(tenant string, n int, bypass bool) (*ResultEntry, doneInfo, error) {
	if s.results == nil || bypass {
		return s.runStatement(tenant, n)
	}
	key := fmt.Sprintf("q%d|e%d", n, s.cfg.Cluster.Epoch())
	var leader doneInfo
	entry, src, err := s.results.Do(key, func() (*ResultEntry, error) {
		e, info, err := s.runStatement(tenant, n)
		leader = info
		return e, err
	})
	if err != nil {
		return nil, doneInfo{}, err
	}
	switch src {
	case ResultExecuted:
		return entry, leader, nil
	case ResultShared:
		return entry, doneInfo{rows: entry.Rows, flags: doneResultHit | doneShared, path: "shared"}, nil
	default:
		return entry, doneInfo{rows: entry.Rows, flags: doneResultHit, path: "result-hit"}, nil
	}
}

// runStatement builds TPC-H query n and executes it through the
// weighted-fair session, returning the encoded result.
func (s *Server) runStatement(tenant string, n int) (*ResultEntry, doneInfo, error) {
	q, err := queries.Build(n, queries.Params{SF: s.cfg.SF})
	if err != nil {
		return nil, doneInfo{}, err
	}
	res, stats, err := s.session.RunContext(context.Background(), q, cluster.WithTenant(tenant))
	if errors.Is(err, cluster.ErrSessionClosed) {
		err = ErrDraining
	}
	if err != nil {
		return nil, doneInfo{}, err
	}
	entry := encodeResult(res)
	return entry, doneInfo{
		rows:      entry.Rows,
		queueWait: stats.QueueWait,
		compile:   stats.Compile,
		exec:      stats.Exec,
		wireBytes: stats.WireBytes(),
		path:      "executed",
	}, nil
}

// resultBatchRows caps rows per Batch frame so very large results stream
// instead of building one giant frame.
const resultBatchRows = 8192

// encodeResult captures a result batch as wire frames (ser tuple format).
func encodeResult(b *storage.Batch) *ResultEntry {
	codec := ser.NewCodec(b.Schema)
	e := &ResultEntry{
		SchemaPayload: putSchema(nil, b.Schema),
		Rows:          uint64(b.Rows()),
	}
	for start := 0; start < b.Rows(); start += resultBatchRows {
		end := start + resultBatchRows
		if end > b.Rows() {
			end = b.Rows()
		}
		payload := putU32(nil, uint32(end-start))
		for r := start; r < end; r++ {
			payload = codec.EncodeRow(b, r, payload)
		}
		e.Batches = append(e.Batches, payload)
	}
	return e
}
