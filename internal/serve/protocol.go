// Package serve is the network-facing serving tier: a TCP server speaking
// a small length-prefixed request/response protocol, a result cache with
// single-flight deduplication for identical read-only queries, and
// per-tenant latency accounting, layered on a cluster.Session whose queue
// does the per-tenant weighted-fair admission. Every request that executes
// builds its statement and compiles it on every server (exchange state is per query id, so no
// compiled state outlives a run); a Prepare frame validates the statement
// and returns its result schema, nothing is kept from it but the handle.
// It is where the engine meets untrusted, concurrent, heterogeneous
// traffic.
//
// # Wire protocol
//
// Every frame is
//
//	uint32 little-endian length (of what follows) | uint8 type | payload
//
// Strings are uvarint length + bytes; integers are little-endian. A
// connection opens with Hello/HelloOK, then carries one request/response
// exchange at a time:
//
//	Hello     c→s  version u8, tenant string (at most 64 bytes)
//	HelloOK   s→c  version u8, sf f64bits, seed u64, weight u32
//	Prepare   c→s  statement string                ("q1".."q22")
//	Prepared  s→c  handle u32, result schema
//	Exec      c→s  flags u8 (1 = bypass result cache), handle u32
//	               (NoHandle = by text), statement string
//	Schema    s→c  result schema (first frame of a result stream)
//	Batch     s→c  row count u32, tuples in the ser wire format
//	Done      s→c  rows u64, flags u8 (2 = result hit, 4 = shared; bit 0
//	               reserved), queue-wait, compile, exec, total (u64
//	               nanoseconds each)
//	Error     s→c  message string
//	CloseStmt c→s  handle u32  → OK
//	Shutdown  c→s  → OK, then the server drains and exits
//	OK        s→c  empty
//
// Result rows ride the same densely-packed tuple format the exchanges use
// (internal/ser), so a served result is byte-compatible with an engine
// shuffle of the same schema.
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hsqp/internal/storage"
)

// ProtoVersion is the protocol revision spoken by this package.
const ProtoVersion = 1

// Frame types.
const (
	frameHello     = 0x01
	frameHelloOK   = 0x02
	framePrepare   = 0x03
	framePrepared  = 0x04
	frameExec      = 0x05
	frameSchema    = 0x06
	frameBatch     = 0x07
	frameDone      = 0x08
	frameError     = 0x09
	frameCloseStmt = 0x0a
	frameShutdown  = 0x0b
	frameOK        = 0x0c
)

// Exec flags (request).
const (
	// execBypassResultCache forces execution even when a cached result
	// exists (benchmark ablation; also the escape hatch for callers that
	// must not observe caching).
	execBypassResultCache = 1 << 0
)

// Done flags (response). Bit 0 is reserved and always sent as zero: older
// clients read it as "plan-cache hit".
const (
	doneResultHit = 1 << 1 // result cache hit (no execution at all)
	doneShared    = 1 << 2 // single-flight: rode another request's run
)

// NoHandle in an Exec frame means "execute the statement text".
const NoHandle = ^uint32(0)

// maxFrame bounds a single frame the server sends; larger results stream
// as many Batch frames, so this is per-frame, not per-result.
const maxFrame = 64 << 20

// maxRequestFrame bounds a frame the server reads. The largest legal
// request is an Exec carrying a statement string, so a client — which may
// not even have said Hello yet — cannot make the server allocate more than
// this by advertising a length.
const maxRequestFrame = 64 << 10

var errFrameTooLarge = errors.New("serve: frame too large")

// ParseStatement resolves a statement text to a TPC-H query number.
// Accepted forms: "q12", "Q12", "12".
func ParseStatement(stmt string) (int, error) {
	s := strings.TrimSpace(strings.ToLower(stmt))
	s = strings.TrimPrefix(s, "q")
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 || n > 22 {
		return 0, fmt.Errorf("serve: unknown statement %q (want q1..q22)", stmt)
	}
	return n, nil
}

// writeFrame emits one frame. The caller flushes.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("%w: %d bytes, bound %d", errFrameTooLarge, len(payload)+1, maxFrame)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame of at most max bytes (type byte included),
// rejecting oversized input before allocating for it, and truncated input.
func readFrame(r *bufio.Reader, max uint32) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, errors.New("serve: zero-length frame")
	}
	if n > max {
		return 0, nil, fmt.Errorf("%w: %d bytes, bound %d", errFrameTooLarge, n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("serve: truncated frame: %w", err)
	}
	return buf[0], buf[1:], nil
}

// maxTenantName bounds the tenant name a Hello may carry: the name becomes
// a metric label and a key of the per-tenant stats, so one handshake must
// not be able to pin a request frame's worth of it.
const maxTenantName = 64

// parseHello decodes a Hello payload into the tenant name, rejecting any
// protocol version but this package's and names beyond maxTenantName.
func parseHello(payload []byte) (tenant string, err error) {
	if len(payload) < 1 {
		return "", errors.New("serve: corrupt Hello frame")
	}
	if payload[0] != ProtoVersion {
		return "", fmt.Errorf("serve: protocol version %d not supported (want %d)", payload[0], ProtoVersion)
	}
	tenant, _, err = getString(payload[1:])
	if err == nil && len(tenant) > maxTenantName {
		return "", fmt.Errorf("serve: tenant name of %d bytes exceeds %d", len(tenant), maxTenantName)
	}
	return tenant, err
}

// parseExec decodes an Exec payload.
func parseExec(payload []byte) (flags byte, handle uint32, stmt string, err error) {
	if len(payload) < 1 {
		return 0, 0, "", errors.New("serve: corrupt Exec frame")
	}
	handle, rest, err := getU32(payload[1:])
	if err != nil {
		return 0, 0, "", err
	}
	stmt, _, err = getString(rest)
	return payload[0], handle, stmt, err
}

// --- payload primitives ---

func putString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func getString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, errors.New("serve: corrupt string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func getU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errors.New("serve: corrupt u32")
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

func getU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errors.New("serve: corrupt u64")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// putSchema encodes a result schema: field count, then per field the
// name, type byte and nullable byte.
func putSchema(b []byte, s *storage.Schema) []byte {
	b = binary.AppendUvarint(b, uint64(s.Len()))
	for _, f := range s.Fields {
		b = putString(b, f.Name)
		b = append(b, byte(f.Type))
		if f.Nullable {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func getSchema(b []byte) (*storage.Schema, []byte, error) {
	n, sz := binary.Uvarint(b)
	// A field is at least three bytes (empty name, type, nullable), so a
	// short payload cannot ask for more fields than it could hold.
	if sz <= 0 || n > 1<<16 || n > uint64(len(b)-sz)/3 {
		return nil, nil, errors.New("serve: corrupt schema")
	}
	b = b[sz:]
	fields := make([]storage.Field, 0, n)
	for i := uint64(0); i < n; i++ {
		name, rest, err := getString(b)
		if err != nil {
			return nil, nil, err
		}
		if len(rest) < 2 {
			return nil, nil, errors.New("serve: corrupt schema field")
		}
		typ := storage.Type(rest[0])
		if typ > storage.TString {
			return nil, nil, fmt.Errorf("serve: unknown column type %d", rest[0])
		}
		fields = append(fields, storage.Field{Name: name, Type: typ, Nullable: rest[1] == 1})
		b = rest[2:]
	}
	return storage.NewSchema(fields...), b, nil
}

func putF64(b []byte, v float64) []byte {
	return putU64(b, math.Float64bits(v))
}

func getF64(b []byte) (float64, []byte, error) {
	u, rest, err := getU64(b)
	return math.Float64frombits(u), rest, err
}
