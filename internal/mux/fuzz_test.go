package mux

import (
	"encoding/binary"
	"testing"

	"hsqp/internal/memory"
	"hsqp/internal/numa"
)

// FuzzMuxInbound drives a multiplexer with arbitrary sequences of what
// peers can hand it: inline tags (barriers of any number, probe requests
// and echoes, from any source id) and data frames with any query,
// exchange, sender and Last flag, interleaved with opening, draining and
// closing exchanges. Each 8-byte record of the input is one step. The
// multiplexer must not panic; its open exchanges must match a model after
// every step and be none once every query closed; a data frame whose
// exchange is not open (never opened yet, or its query closed) is dropped
// and counted; every buffer must come back to the pool; a barrier completes
// exactly the phases up to the highest tag its source sent, so a stale tag
// completes no later phase; and the barrier state stays one number per
// server however many tags arrive. Sequence numbers are stamped
// increasing per (query, exchange, sender), and no exchange gets more
// Last markers than it has senders: a violation of either is a transport
// bug the multiplexer asserts on (docs/invariants.md), not peer input.
// The seed corpus is in testdata/fuzz/FuzzMuxInbound.
func FuzzMuxInbound(f *testing.F) {
	rec := func(b ...byte) []byte { return append(b, make([]byte, 8-len(b))...) }
	cat := func(rs ...[]byte) (out []byte) {
		for _, r := range rs {
			out = append(out, r...)
		}
		return out
	}
	f.Add(cat(rec(0, 2, 5), rec(0, 2, 3), rec(0, 1, 0xff, 0xff, 0xff, 0x7f)))
	f.Add(cat(rec(1, 0, 1, 1, 1), rec(1, 0, 1, 2, 0), rec(2, 0, 1), rec(3), rec(4, 0)))
	f.Add(cat(rec(2, 1, 2), rec(1, 1, 2, 0, 1), rec(1, 1, 2, 1, 1), rec(1, 1, 2, 2, 1), rec(3), rec(4, 1)))
	// A data frame before its exchange opens is dropped, not held for it.
	f.Add(cat(rec(1, 0, 1, 0, 1, 0, 1, 9), rec(2, 0, 1), rec(3), rec(4, 0)))
	f.Add([]byte{})

	const servers = 3
	const queries, exchanges = 3, 4
	f.Fuzz(func(t *testing.T, in []byte) {
		pool := memory.NewPool(numa.TwoSocket(), numa.AllocLocal, 256, nil)
		m, err := New(Config{Server: 0, Servers: servers, Topology: numa.TwoSocket(), Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		m.SetTransport(newGatedTransport(1024))
		defer m.Close()

		type stream struct{ q, ex int32 }
		open := map[stream]*ExchangeRecv{}
		opened := map[stream]bool{}   // ever opened: a second open is a harness bug
		lasts := map[stream]int{}     // Last markers delivered per exchange
		seqs := map[[3]int32]uint32{} // next sequence number per (query, exchange, sender)
		closed := map[int32]bool{}
		var dropped uint64            // data frames that found no open exchange
		var barrierHi [servers]uint32 // model: 1 + highest barrier tag per source

		drain := func(s stream) {
			ex := open[s]
			for {
				msg, _ := ex.TryRecv(0)
				if msg == nil {
					return
				}
				msg.Release()
			}
		}
		closeQuery := func(q int32) {
			for s := range open {
				if s.q == q {
					drain(s)
					delete(open, s)
				}
			}
			m.CloseQuery(q)
			closed[q] = true
		}

		for ; len(in) >= 8; in = in[8:] {
			r := in[:8]
			switch r[0] % 5 {
			case 0: // an inline frame from src, possibly not a server at all
				src := int(r[1])%(servers+2) - 1
				tag := binary.LittleEndian.Uint32(r[2:])
				m.OnInline(src, tag)
				if tag&(probeReqBit|probeAckBit) == 0 && src >= 0 && src < servers && tag >= barrierHi[src] {
					barrierHi[src] = tag + 1
				}
			case 1: // a data frame
				s := stream{q: int32(r[1] % queries), ex: int32(r[2] % exchanges)}
				sender := int32(r[3] % (servers + 1))
				last := r[4]&1 == 1 && lasts[s] < servers
				if last {
					lasts[s]++
				}
				k := [3]int32{s.q, s.ex, sender}
				msg := pool.Get(0)
				msg.QueryID, msg.ExchangeID, msg.Sender, msg.Last = s.q, s.ex, int(sender), last
				msg.Seq = seqs[k]
				seqs[k] += 1 + uint32(r[4]>>1)%3 // gaps are legal
				msg.Node = numa.Node(r[5] % 3)
				msg.Content = append(msg.Content, r[6:6+r[6]%3]...)
				m.OnRecv(msg)
				if open[s] == nil {
					dropped++
				}
			case 2: // open an exchange
				s := stream{q: int32(r[1] % queries), ex: int32(r[2] % exchanges)}
				if opened[s] || closed[s.q] {
					continue
				}
				opened[s] = true
				open[s] = m.OpenExchange(s.q, s.ex, servers)
			case 3: // consume everything the open exchanges hold
				for s := range open {
					drain(s)
				}
			case 4:
				closeQuery(int32(r[1] % queries))
			}

			if exs := m.OpenExchanges(); exs != len(open) {
				t.Fatalf("%d exchanges open, model %d", exs, len(open))
			}
			if got := m.Stats().DroppedMsgs; got != dropped {
				t.Fatalf("%d messages dropped, model %d", got, dropped)
			}
			if len(m.queues.barrierHi) != servers {
				t.Fatalf("barrier state grew to %d entries", len(m.queues.barrierHi))
			}
			m.sendMu.Lock()
			for src, hi := range barrierHi {
				later := m.queues.Synced(src, hi) // the first phase src has not reached
				reached := hi == 0 || m.queues.Synced(src, hi-1)
				if later || !reached {
					m.sendMu.Unlock()
					t.Fatalf("source %d sent barrier tags up to %d: phase %d completes %v, phase %d completes %v",
						src, int64(hi)-1, hi, later, int64(hi)-1, reached)
				}
			}
			m.sendMu.Unlock()
		}

		for q := int32(0); q < queries; q++ {
			closeQuery(q)
		}
		if exs := m.OpenExchanges(); exs != 0 {
			t.Fatalf("after closing every query: %d exchanges open", exs)
		}
		if st := pool.Stats(); st.Allocated+st.Recycled != st.Returned {
			t.Fatalf("buffers not released: %+v", st)
		}
	})
}
