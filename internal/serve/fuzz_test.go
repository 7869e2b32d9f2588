package serve

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
	"time"

	"hsqp/internal/ser"
	"hsqp/internal/storage"
)

// frame renders one frame the way writeFrame puts it on the wire.
func frame(t testing.TB, typ byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, typ, payload); err != nil {
		t.Fatalf("writeFrame 0x%02x: %v", typ, err)
	}
	w.Flush()
	return buf.Bytes()
}

// putExec and putDone lay out the two payloads Client.exec and
// Server.handleExec build inline.
func putExec(flags byte, handle uint32, stmt string) []byte {
	return putString(putU32([]byte{flags}, handle), stmt)
}

func putDone(st ExecStats) []byte {
	var flags byte
	if st.ResultHit {
		flags |= doneResultHit
	}
	if st.Shared {
		flags |= doneShared
	}
	out := append(putU64(nil, uint64(st.Rows)), flags)
	for _, d := range []time.Duration{st.QueueWait, st.Compile, st.Exec, st.Total} {
		out = putU64(out, uint64(d))
	}
	return out
}

func sameSchema(a, b *storage.Schema) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, f := range a.Fields {
		if f != b.Fields[i] {
			return false
		}
	}
	return true
}

// FuzzServeFrames feeds arbitrary bytes to every decoder that reads what a
// peer sent: readFrame under the server's request bound, then, by frame
// type, the payload parses of both directions. None may panic or allocate
// beyond what the bytes received can describe, and whatever decodes must
// survive re-encoding with the put* helpers and decoding again.
func FuzzServeFrames(f *testing.F) {
	// Seed corpus: the frames TestServedResultsMatchDirect exchanges for
	// one statement (Hello/HelloOK, Exec by text, Schema/Batch/Done,
	// Prepare/Prepared, Exec by handle, CloseStmt/OK, Error), each alone
	// and all as one stream, plus degenerate headers.
	q6 := storage.NewSchema(storage.Field{Name: "revenue", Type: storage.TDecimal, Nullable: true})
	exchange := [][]byte{
		frame(f, frameHello, putString([]byte{ProtoVersion}, "conformance")),
		frame(f, frameHelloOK, putU32(putU64(putF64([]byte{ProtoVersion}, 0.01), 42), 1)),
		frame(f, frameExec, putExec(0, NoHandle, "q6")),
		frame(f, frameSchema, putSchema(nil, q6)),
		frame(f, frameBatch, append(putU32(nil, 1), 1, 0x15, 0xcd, 0x5b, 0x07, 0, 0, 0, 0)),
		frame(f, frameDone, putDone(ExecStats{Rows: 1, Compile: time.Millisecond, Exec: 9 * time.Millisecond, Total: 11 * time.Millisecond})),
		frame(f, frameExec, putExec(execBypassResultCache, NoHandle, "Q6")),
		frame(f, frameDone, putDone(ExecStats{Rows: 1, ResultHit: true, Shared: true})),
		frame(f, framePrepare, putString(nil, "q6")),
		frame(f, framePrepared, putSchema(putU32(nil, 1), q6)),
		frame(f, frameExec, putExec(0, 1, "")),
		frame(f, frameCloseStmt, putU32(nil, 1)),
		frame(f, frameOK, nil),
		frame(f, frameError, putString(nil, `serve: unknown statement "q99" (want q1..q22)`)),
	}
	for _, fr := range exchange {
		f.Add(fr)
	}
	f.Add(bytes.Join(exchange, nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameExec})
	f.Add([]byte{2, 0, 0, 0, frameSchema, 0xff})
	f.Add(frame(f, frameHello, putString([]byte{ProtoVersion}, strings.Repeat("t", maxTenantName+1))))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var schema *storage.Schema // of the stream's last Schema frame, as in Client.exec
		for {
			typ, payload, err := readFrame(r, maxRequestFrame)
			if err != nil {
				return
			}
			if len(payload) >= maxRequestFrame || len(payload) > len(data) {
				t.Fatalf("readFrame returned %d payload bytes from %d input bytes under bound %d", len(payload), len(data), maxRequestFrame)
			}
			schema = fuzzPayload(t, typ, payload, schema)
		}
	})
}

// fuzzPayload decodes one payload as its frame type's reader would and
// checks the decode → encode → decode round trip. It returns the schema
// later Batch frames are decoded under.
func fuzzPayload(t *testing.T, typ byte, payload []byte, schema *storage.Schema) *storage.Schema {
	switch typ {
	case frameHello:
		tenant, err := parseHello(payload)
		if err != nil {
			break
		}
		if len(tenant) > maxTenantName {
			t.Fatalf("Hello accepted a %d-byte tenant name (bound %d)", len(tenant), maxTenantName)
		}
		if again, err := parseHello(putString([]byte{ProtoVersion}, tenant)); err != nil || again != tenant {
			t.Fatalf("Hello tenant %q re-decoded as %q, %v", tenant, again, err)
		}
	case framePrepare:
		stmt, _, err := getString(payload)
		if err != nil {
			break
		}
		if n, err := ParseStatement(stmt); err == nil && (n < 1 || n > 22) {
			t.Fatalf("ParseStatement(%q) = %d without error", stmt, n)
		}
		if again, _, err := getString(putString(nil, stmt)); err != nil || again != stmt {
			t.Fatalf("statement %q re-decoded as %q, %v", stmt, again, err)
		}
	case frameExec:
		flags, handle, stmt, err := parseExec(payload)
		if err != nil {
			break
		}
		f2, h2, s2, err := parseExec(putExec(flags, handle, stmt))
		if err != nil || f2 != flags || h2 != handle || s2 != stmt {
			t.Fatalf("Exec (%#x, %d, %q) re-decoded as (%#x, %d, %q), %v", flags, handle, stmt, f2, h2, s2, err)
		}
	case frameCloseStmt:
		getU32(payload)
	case framePrepared:
		if _, rest, err := getU32(payload); err == nil {
			fuzzSchema(t, rest)
		}
	case frameSchema:
		if s := fuzzSchema(t, payload); s != nil {
			schema = s
		}
	case frameBatch:
		n, rows, err := getU32(payload)
		if err != nil || schema == nil {
			break
		}
		batch := storage.NewBatch(schema, 0)
		if got, err := ser.NewCodec(schema).DecodeAll(rows, batch); err == nil && got == int(n) && batch.Rows() != got {
			t.Fatalf("Batch of %d rows decoded into %d", got, batch.Rows())
		}
	case frameDone:
		st, err := decodeDone(payload)
		if err != nil {
			break
		}
		if again, err := decodeDone(putDone(st)); err != nil || again != st {
			t.Fatalf("Done %+v re-decoded as %+v, %v", st, again, err)
		}
	case frameError:
		if decodeError(payload) == nil {
			t.Fatal("decodeError returned nil for an Error frame")
		}
	}
	return schema
}

// fuzzSchema returns the decoded schema, or nil when the payload has none.
func fuzzSchema(t *testing.T, payload []byte) *storage.Schema {
	schema, _, err := getSchema(payload)
	if err != nil {
		return nil
	}
	if 3*schema.Len() > len(payload) {
		t.Fatalf("getSchema built %d fields from %d bytes", schema.Len(), len(payload))
	}
	again, rest, err := getSchema(putSchema(nil, schema))
	if err != nil || len(rest) != 0 || !sameSchema(again, schema) {
		t.Fatalf("schema %v re-decoded as %v (%d trailing bytes), %v", schema.Fields, again, len(rest), err)
	}
	return schema
}
