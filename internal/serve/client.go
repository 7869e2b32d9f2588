package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"hsqp/internal/ser"
	"hsqp/internal/storage"
)

// ServerInfo is what the server advertises in HelloOK.
type ServerInfo struct {
	SF     float64 // scale factor of the loaded database
	Seed   uint64  // generator seed (clients can regenerate for verification)
	Weight int     // this tenant's admission weight
}

// ExecStats reports one served request as seen by the client.
type ExecStats struct {
	Rows int
	// PlanHit is always false — every executed request builds and compiles
	// its statement; the field stays declared because benchmark/ reads it.
	PlanHit   bool
	ResultHit bool // result cache hit (no execution at all)
	Shared    bool // single-flight: shared a concurrent identical run
	QueueWait time.Duration
	Compile   time.Duration
	Exec      time.Duration
	Total     time.Duration // server-side serving time
	Wall      time.Duration // client-observed round-trip
}

// ExecOpts tunes one Exec request.
type ExecOpts struct {
	// BypassResultCache forces execution even when a cached result exists.
	BypassResultCache bool
}

// Client is one tenant connection to an hsqpd server. It is not safe for
// concurrent use (the protocol is one request/response at a time per
// connection); open one Client per concurrent stream.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// Info is the server's HelloOK advertisement.
	Info ServerInfo
}

// Dial connects and performs the Hello handshake as the tenant.
func Dial(addr, tenant string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
	hello := []byte{ProtoVersion}
	hello = putString(hello, tenant)
	if err := c.request(frameHello, hello); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := readFrame(c.br, maxFrame)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if typ == frameError {
		conn.Close()
		return nil, decodeError(payload)
	}
	if typ != frameHelloOK || len(payload) < 1 || payload[0] != ProtoVersion {
		conn.Close()
		return nil, errors.New("serve: bad HelloOK")
	}
	rest := payload[1:]
	if c.Info.SF, rest, err = getF64(rest); err == nil {
		if c.Info.Seed, rest, err = getU64(rest); err == nil {
			var w uint32
			if w, _, err = getU32(rest); err == nil {
				c.Info.Weight = int(w)
			}
		}
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) request(typ byte, payload []byte) error {
	if err := writeFrame(c.bw, typ, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

func decodeError(payload []byte) error {
	msg, _, err := getString(payload)
	if err != nil {
		return errors.New("serve: malformed error frame")
	}
	return fmt.Errorf("serve: server error: %s", msg)
}

// Stmt is a prepared statement handle on one connection.
type Stmt struct {
	c      *Client
	handle uint32
	schema *storage.Schema
}

// Schema is the statement's result schema as reported at prepare time.
func (st *Stmt) Schema() *storage.Schema { return st.schema }

// Prepare has the server validate the statement (one compile on every
// server, nothing of it kept) and returns a handle with the result schema.
// Executing through the handle builds and compiles like executing by text.
func (c *Client) Prepare(stmt string) (*Stmt, error) {
	if err := c.request(framePrepare, putString(nil, stmt)); err != nil {
		return nil, err
	}
	typ, payload, err := readFrame(c.br, maxFrame)
	if err != nil {
		return nil, err
	}
	if typ == frameError {
		return nil, decodeError(payload)
	}
	if typ != framePrepared {
		return nil, fmt.Errorf("serve: unexpected frame 0x%02x to Prepare", typ)
	}
	handle, rest, err := getU32(payload)
	if err != nil {
		return nil, err
	}
	schema, _, err := getSchema(rest)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, handle: handle, schema: schema}, nil
}

// Exec executes the prepared statement.
func (st *Stmt) Exec() (*storage.Batch, ExecStats, error) {
	return st.c.exec("", st.handle, ExecOpts{})
}

// ExecOpts executes the prepared statement with options.
func (st *Stmt) ExecOpts(opts ExecOpts) (*storage.Batch, ExecStats, error) {
	return st.c.exec("", st.handle, opts)
}

// Close releases the statement handle server-side.
func (st *Stmt) Close() error {
	if err := st.c.request(frameCloseStmt, putU32(nil, st.handle)); err != nil {
		return err
	}
	typ, payload, err := readFrame(st.c.br, maxFrame)
	if err != nil {
		return err
	}
	if typ == frameError {
		return decodeError(payload)
	}
	return nil
}

// Exec executes a statement by text ("q12").
func (c *Client) Exec(stmt string) (*storage.Batch, ExecStats, error) {
	return c.exec(stmt, NoHandle, ExecOpts{})
}

// ExecWithOpts executes a statement by text with options.
func (c *Client) ExecWithOpts(stmt string, opts ExecOpts) (*storage.Batch, ExecStats, error) {
	return c.exec(stmt, NoHandle, opts)
}

func (c *Client) exec(stmt string, handle uint32, opts ExecOpts) (*storage.Batch, ExecStats, error) {
	start := time.Now()
	var flags byte
	if opts.BypassResultCache {
		flags |= execBypassResultCache
	}
	payload := []byte{flags}
	payload = putU32(payload, handle)
	payload = putString(payload, stmt)
	if err := c.request(frameExec, payload); err != nil {
		return nil, ExecStats{}, err
	}

	// Response stream: Schema, Batch*, Done (or Error at any boundary).
	var batch *storage.Batch
	var codec *ser.Codec
	for {
		typ, payload, err := readFrame(c.br, maxFrame)
		if err != nil {
			return nil, ExecStats{}, err
		}
		switch typ {
		case frameError:
			return nil, ExecStats{}, decodeError(payload)
		case frameSchema:
			schema, _, err := getSchema(payload)
			if err != nil {
				return nil, ExecStats{}, err
			}
			batch = storage.NewBatch(schema, 0)
			codec = ser.NewCodec(schema)
		case frameBatch:
			if batch == nil {
				return nil, ExecStats{}, errors.New("serve: Batch before Schema")
			}
			n, rows, err := getU32(payload)
			if err != nil {
				return nil, ExecStats{}, err
			}
			got, err := codec.DecodeAll(rows, batch)
			if err != nil {
				return nil, ExecStats{}, fmt.Errorf("serve: decoding result batch: %w", err)
			}
			if got != int(n) {
				return nil, ExecStats{}, fmt.Errorf("serve: batch advertised %d rows, decoded %d", n, got)
			}
		case frameDone:
			if batch == nil {
				return nil, ExecStats{}, errors.New("serve: Done before Schema")
			}
			stats, err := decodeDone(payload)
			if err != nil {
				return nil, ExecStats{}, err
			}
			if stats.Rows != batch.Rows() {
				return nil, ExecStats{}, fmt.Errorf("serve: Done advertised %d rows, decoded %d", stats.Rows, batch.Rows())
			}
			stats.Wall = time.Since(start)
			return batch, stats, nil
		default:
			return nil, ExecStats{}, fmt.Errorf("serve: unexpected frame 0x%02x in result stream", typ)
		}
	}
}

func decodeDone(payload []byte) (ExecStats, error) {
	rows, rest, err := getU64(payload)
	if err != nil {
		return ExecStats{}, err
	}
	if len(rest) < 1 {
		return ExecStats{}, errors.New("serve: corrupt Done frame")
	}
	flags := rest[0]
	rest = rest[1:]
	var qw, cp, ex, tot uint64
	if qw, rest, err = getU64(rest); err == nil {
		if cp, rest, err = getU64(rest); err == nil {
			if ex, rest, err = getU64(rest); err == nil {
				tot, _, err = getU64(rest)
			}
		}
	}
	if err != nil {
		return ExecStats{}, err
	}
	return ExecStats{
		Rows:      int(rows),
		ResultHit: flags&doneResultHit != 0,
		Shared:    flags&doneShared != 0,
		QueueWait: time.Duration(qw),
		Compile:   time.Duration(cp),
		Exec:      time.Duration(ex),
		Total:     time.Duration(tot),
	}, nil
}

// Shutdown asks the server to drain and exit (in-flight queries complete,
// queued ones fail fast).
func (c *Client) Shutdown() error {
	if err := c.request(frameShutdown, nil); err != nil {
		return err
	}
	typ, payload, err := readFrame(c.br, maxFrame)
	if err != nil {
		return err
	}
	if typ == frameError {
		return decodeError(payload)
	}
	if typ != frameOK {
		return fmt.Errorf("serve: unexpected frame 0x%02x to Shutdown", typ)
	}
	return nil
}
