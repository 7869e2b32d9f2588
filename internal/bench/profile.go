package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/fabric"
	"hsqp/internal/queries"
)

// profileShape is one workload of BENCHMARK.json as the profile experiment
// runs it: the benchmark's cluster shape (3 servers × 2 workers, round-robin
// scheduling) and traffic mix.
type profileShape struct {
	sf         float64
	transport  cluster.TransportKind
	rate       fabric.Rate // zero: the transport's default
	statements []int
	streams    int // closed-loop clients sharing the cluster
}

var shortStatements = []int{1, 3, 5, 6, 12, 14, 18}

// profileShapes mirrors benchmark/workload.go. serve_mix runs its
// statements from two closed-loop streams through one two-slot Session,
// without the serving tier's framing and caches.
var profileShapes = map[string]profileShape{
	"power_rdma":     {sf: 0.05, transport: cluster.RDMA, statements: queries.All(), streams: 1},
	"shuffle_gbe":    {sf: 0.02, transport: cluster.TCPGbE, statements: []int{3, 5, 9, 10, 17, 18, 21}, streams: 1},
	"stream_gberate": {sf: 0.01, transport: cluster.RDMA, rate: fabric.GbE, statements: shortStatements, streams: 1},
	"serve_mix":      {sf: 0.01, transport: cluster.RDMA, statements: shortStatements, streams: 2},
}

// profile runs a warm-up round and then a.Rounds rounds (default 10) of a
// benchmark workload's shape at GOMAXPROCS=2 under the CPU profiler, writes
// the profile to a.CPUProfile (default hsqp-<workload>.pprof) and prints
// wall time, process CPU seconds (getrusage) and the cores that used.
func profile(w io.Writer, a Args) error {
	name := a.Shape
	if name == "" {
		name = "power_rdma"
	}
	shape, ok := profileShapes[name]
	if !ok {
		names := make([]string, 0, len(profileShapes))
		for n := range profileShapes {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q; want one of %s", name, strings.Join(names, ", "))
	}
	rounds := a.Rounds
	if rounds <= 0 {
		rounds = 10
	}
	path := a.CPUProfile
	if path == "" {
		path = fmt.Sprintf("hsqp-%s.pprof", name)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	wl := Workload{SF: shape.sf, Queries: shape.statements}
	c, err := load(cluster.Config{
		Servers: 3, WorkersPerServer: 2, Transport: shape.transport, Rate: shape.rate, Scheduling: true,
	}, wl.fill)
	if err != nil {
		return err
	}
	defer c.Close()
	sess := c.NewSession(cluster.SessionConfig{MaxConcurrent: shape.streams, MaxQueued: shape.streams})
	defer sess.Close()
	// round runs the statements once per stream, each stream closed-loop.
	round := func() error {
		errs := make([]error, shape.streams)
		var wg sync.WaitGroup
		for s := range errs {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for _, qn := range shape.statements {
					q, err := queries.Build(qn, queries.Params{SF: shape.sf})
					if err == nil {
						_, _, err = sess.RunContext(context.Background(), q)
					}
					if err != nil {
						errs[s] = fmt.Errorf("q%d: %w", qn, err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := round(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	cpu0 := cpuSeconds()
	start := time.Now()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	for r := 0; r < rounds && err == nil; r++ {
		err = round()
	}
	pprof.StopCPUProfile()
	wall := time.Since(start)
	cpu := cpuSeconds() - cpu0
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	n := rounds * shape.streams * len(shape.statements)
	fmt.Fprintf(w, "profile %s: %d rounds, %d queries, 3 servers × 2 workers, GOMAXPROCS=2\n", name, rounds, n)
	fmt.Fprintf(w, "wall %.3f s, CPU %.3f s (user+system), %.2f cores, %.2f ms wall and %.2f ms CPU per query\n",
		wall.Seconds(), cpu, cpu/wall.Seconds(), wall.Seconds()*1e3/float64(n), cpu*1e3/float64(n))
	fmt.Fprintf(w, "CPU profile: %s (go tool pprof -top %s)\n", path, path)
	return nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}
