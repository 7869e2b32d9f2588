package mux

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsqp/internal/memory"
	"hsqp/internal/numa"
)

// TestInterleavedDeliveriesSpreadUnderLock: two senders deliver
// interleaved-homed messages (Figure 9's AllocInterleaved policy) into one
// exchange at once. The fallback lane is picked under the exchange lock,
// so the deliveries alternate over both sockets' lanes exactly, and the
// race detector sees no unguarded read of the delivery count.
func TestInterleavedDeliveriesSpreadUnderLock(t *testing.T) {
	muxes, stop := testCluster(t, 1, false)
	defer stop()
	pool := memory.NewPool(numa.TwoSocket(), numa.AllocInterleaved, 4096, nil)
	const senders, msgs = 2, 200
	recv := muxes[0].OpenExchange(0, 4, senders)
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k <= msgs; k++ {
				msg := pool.Get(0)
				msg.ExchangeID, msg.Sender, msg.Seq, msg.Last = 4, s, uint32(k), k == msgs
				muxes[0].Send(0, msg)
			}
		}()
	}
	wg.Wait()
	// A socket-0 consumer empties its own lane first, then steals every
	// message of socket 1's lane: half of all deliveries.
	n := 0
	for m := recv.Recv(0); m != nil; m = recv.Recv(0) {
		n++
		m.Release()
	}
	if n != senders*(msgs+1) {
		t.Fatalf("received %d messages, want %d", n, senders*(msgs+1))
	}
	if got := recv.StolenCount(); got != uint64(n/2) {
		t.Fatalf("stole %d messages, want %d: interleaved deliveries did not alternate over the lanes", got, n/2)
	}
}

// laneCase is one random exchange: the messages in delivery order and the
// lane each one must land in.
type laneCase struct {
	classic bool
	senders int
	lanes   int
	msgs    []*memory.Message
	lane    map[*memory.Message]int
}

// randomLaneCase builds 1–3 sender streams of 0–50 data messages each,
// ending in their Last markers (one per lane in the classic model), with
// random homes — NodeInterleaved and out-of-range nodes included — and
// random classic partitions, and interleaves the streams at random.
func randomLaneCase(rng *rand.Rand, classic bool, exID int32) laneCase {
	c := laneCase{classic: classic, senders: 1 + rng.IntN(3), lanes: 1 + rng.IntN(4), lane: map[*memory.Message]int{}}
	streams := make([][]*memory.Message, c.senders)
	for s := range streams {
		msg := func(last bool, part int) *memory.Message {
			m := &memory.Message{
				ExchangeID: exID, Sender: s, Seq: uint32(len(streams[s])), Last: last,
				Node: numa.Node(rng.IntN(c.lanes+2) - 1), Part: int16(part),
			}
			streams[s] = append(streams[s], m)
			return m
		}
		for range rng.IntN(51) {
			msg(false, rng.IntN(c.lanes))
		}
		lasts := 1
		if classic {
			lasts = c.lanes
		}
		for w := range lasts {
			msg(true, w)
		}
	}
	for len(streams) > 0 {
		s := rng.IntN(len(streams))
		m := streams[s][0]
		if streams[s] = streams[s][1:]; len(streams[s]) == 0 {
			streams = append(streams[:s], streams[s+1:]...)
		}
		// The lane push picks: the Part (classic), the home node (hybrid),
		// or for an interleaved or unknown home the delivery count modulo
		// the lane count.
		switch l := int(m.Node); {
		case classic:
			c.lane[m] = int(m.Part)
		case l >= 0 && l < c.lanes:
			c.lane[m] = l
		default:
			c.lane[m] = len(c.msgs) % c.lanes
		}
		c.msgs = append(c.msgs, m)
	}
	return c
}

// TestLaneProperties drains random hybrid and classic exchanges with one
// consumer goroutine per lane, each mixing TryRecv and Recv, while the
// messages are delivered. Every message must arrive exactly once, a
// classic message only on its Part lane; StolenCount must equal the hybrid
// takes from a foreign lane; no consumer may see the exchange done before
// the final Last marker and the last message are gone; and every consumer
// blocked in Recv must return.
func TestLaneProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 7))
	muxes := make([]*Mux, 5) // muxes[s] has s sockets: s hybrid lanes
	for s := 1; s < len(muxes); s++ {
		topo := numa.TwoSocket()
		topo.Sockets = s
		m, err := New(Config{Server: 0, Servers: 1, Topology: topo, Pool: memory.NewPool(topo, numa.AllocLocal, 64, nil)})
		if err != nil {
			t.Fatal(err)
		}
		muxes[s] = m
	}
	for iter := range 400 {
		exID := int32(iter)
		c := randomLaneCase(rng, iter%2 == 1, exID)
		var recv *ExchangeRecv
		dst := muxes[c.lanes]
		if c.classic {
			dst = muxes[1]
			recv = dst.OpenExchangeClassic(0, exID, c.senders, c.lanes)
		} else {
			recv = dst.OpenExchange(0, exID, c.senders)
		}
		var doneEarly atomic.Bool // a consumer saw done before the final delivery
		var delivering atomic.Bool
		delivering.Store(true)
		taken := make([][]*memory.Message, c.lanes)
		foreign := make([]int, c.lanes)
		var wg sync.WaitGroup
		for lane := range c.lanes {
			seed := rng.Uint64()
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewPCG(seed, uint64(lane)))
				for {
					var m *memory.Message
					if r.IntN(2) == 0 {
						if m = recv.Recv(lane); m == nil {
							break
						}
					} else {
						var done bool
						if m, done = recv.TryRecv(lane); done {
							break
						} else if m == nil {
							runtime.Gosched()
							continue
						}
					}
					taken[lane] = append(taken[lane], m)
					if c.lane[m] != lane {
						foreign[lane]++
					}
				}
				if delivering.Load() || !recv.Drained() {
					doneEarly.Store(true)
				}
			}()
		}
		for i, m := range c.msgs {
			if i == len(c.msgs)-1 {
				delivering.Store(false)
			}
			dst.Send(0, m) // a local send delivers synchronously
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("case %d (classic=%v, %d senders, %d lanes): a consumer blocked in Recv never returned",
				iter, c.classic, c.senders, c.lanes)
		}

		seen := map[*memory.Message]int{}
		stolen := 0
		for lane := range c.lanes {
			for _, m := range taken[lane] {
				seen[m]++
				if c.classic && int(m.Part) != lane {
					t.Fatalf("case %d: classic message for part %d taken on lane %d", iter, m.Part, lane)
				}
			}
			stolen += foreign[lane]
		}
		for _, m := range c.msgs {
			if seen[m] != 1 {
				t.Fatalf("case %d (classic=%v): message seq %d from sender %d taken %d times, want once",
					iter, c.classic, m.Seq, m.Sender, seen[m])
			}
		}
		if len(seen) != len(c.msgs) {
			t.Fatalf("case %d: %d distinct messages taken, %d delivered", iter, len(seen), len(c.msgs))
		}
		if got := recv.StolenCount(); got != uint64(stolen) {
			t.Fatalf("case %d (classic=%v, %d lanes): StolenCount %d, want %d foreign takes",
				iter, c.classic, c.lanes, got, stolen)
		}
		if doneEarly.Load() {
			t.Fatalf("case %d (classic=%v): a consumer saw the exchange done before every Last marker and message",
				iter, c.classic)
		}
	}
}
