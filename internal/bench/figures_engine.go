package bench

import (
	"fmt"
	"io"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/fabric"
	"hsqp/internal/numa"
	"hsqp/internal/plan"
)

// Figure2 sweeps the number of cores per server for hybrid parallelism vs
// the classic exchange-operator model: hybrid keeps scaling, classic
// plateaus because its n×t fixed parallel units fragment the work, shrink
// message batching and cannot steal from stragglers. Each step builds one
// cluster and runs both models on it; CoreSteps replaces Setup.Workers.
type Figure2 struct {
	Workload Workload
	Setup
	CoreSteps []int
}

// Figure2Point is one measured configuration.
type Figure2Point struct {
	Cores           int
	Hybrid, Classic time.Duration
}

// Run executes the sweep.
func (f Figure2) Run(w io.Writer) ([]Figure2Point, error) {
	if len(f.CoreSteps) == 0 {
		f.CoreSteps = []int{1, 2, 4}
	}
	var out []Figure2Point
	tab := &Table{
		Title:  "Figure 2: hybrid vs classic exchange, scaling with cores per server",
		Header: []string{"cores/server", "hybrid", "classic", "hybrid speedup", "classic speedup"},
	}
	for _, cores := range f.CoreSteps {
		f.Workers = cores
		res, err := RunVariants(f.config(cluster.RDMA, true), f.Workload, plan.Options{}, plan.Options{Classic: true})
		if err != nil {
			return nil, err
		}
		p := Figure2Point{Cores: cores, Hybrid: res[0].Total, Classic: res[1].Total}
		out = append(out, p)
		base := out[0]
		tab.Add(fmt.Sprintf("%d", cores), Dur(p.Hybrid), Dur(p.Classic),
			F2(base.Hybrid.Seconds()/p.Hybrid.Seconds()),
			F2(base.Classic.Seconds()/p.Classic.Seconds()))
	}
	tab.Fprint(w)
	return out, nil
}

// Figure3 scales the cluster from 1 to N servers at a fixed data set size
// for the three engines: RDMA+scheduling, TCP over InfiniBand, TCP over
// GbE. The paper: RDMA reaches 3.5× at 6 servers, IPoIB-TCP hovers near
// 1×, GbE drops to ~1/6×. Setup.Servers is the largest cluster of the
// sweep (default 4); Workers defaults to 3.
type Figure3 struct {
	Workload Workload
	Setup
}

// Figure3Point is one (servers, engine) measurement.
type Figure3Point struct {
	Servers int
	Speedup map[string]float64
}

// Engines in display order.
var figure3Engines = []struct {
	Name      string
	Transport cluster.TransportKind
	Sched     bool
}{
	{"RDMA+sched", cluster.RDMA, true},
	{"TCP/IPoIB", cluster.TCPoIB, false},
	{"TCP/GbE", cluster.TCPGbE, false},
}

// Run executes the sweep; the single-server baseline is shared.
func (f Figure3) Run(w io.Writer) ([]Figure3Point, error) {
	f.Setup = f.or(Setup{Servers: 4, Workers: 3})
	maxServers := f.Servers
	// Single-server baseline: no network involved, one engine suffices.
	f.Servers = 1
	base, err := RunTPCH(f.config(cluster.RDMA, false), f.Workload)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:  "Figure 3: cluster scale-out speedup over one server (fixed data size)",
		Header: []string{"servers", "RDMA+sched", "TCP/IPoIB", "TCP/GbE"},
	}
	tab.Add("1", "1.00", "1.00", "1.00")
	out := []Figure3Point{{Servers: 1, Speedup: map[string]float64{
		"RDMA+sched": 1, "TCP/IPoIB": 1, "TCP/GbE": 1,
	}}}
	for servers := 2; servers <= maxServers; servers++ {
		p := Figure3Point{Servers: servers, Speedup: map[string]float64{}}
		f.Servers = servers
		for _, e := range figure3Engines {
			res, err := RunTPCH(f.config(e.Transport, e.Sched), f.Workload)
			if err != nil {
				return nil, err
			}
			p.Speedup[e.Name] = base.Total.Seconds() / res.Total.Seconds()
		}
		out = append(out, p)
		tab.Add(fmt.Sprintf("%d", servers),
			F2(p.Speedup["RDMA+sched"]), F2(p.Speedup["TCP/IPoIB"]), F2(p.Speedup["TCP/GbE"]))
	}
	tab.Fprint(w)
	return out, nil
}

// Figure9 compares message-buffer allocation policies on the 4-socket
// server (NUMA-aware vs interleaved vs one-socket); the paper measures
// −17% and −52% of queries/hour respectively. Workers defaults to 8
// (spread over the 4 sockets) and TimeScale to 2: Figure 9 measures an
// *intra-server* memory effect — the paper's 4-socket box is QPI-bound, not
// network-bound — and a small time scale keeps the simulated network out
// of the critical path so the buffer-placement penalty is visible.
type Figure9 struct {
	Workload Workload
	Setup
}

// Figure9Point is one allocation policy's throughput.
type Figure9Point struct {
	Policy numa.AllocPolicy
	QpH    float64
	// RemoteFrac is the measured fraction of message bytes that crossed
	// QPI — the deterministic mechanism behind the Figure 9 deltas.
	RemoteFrac float64
}

// Run executes the comparison.
func (f Figure9) Run(w io.Writer) ([]Figure9Point, error) {
	f.Setup = f.or(Setup{Workers: 8, TimeScale: 2})
	var out []Figure9Point
	tab := &Table{
		Title:  "Figure 9: NUMA-aware message allocation, 4-socket server",
		Header: []string{"allocation", "queries/hour", "relative", "remote bytes"},
	}
	var baseQpH float64
	wl := f.Workload
	if wl.Repeat == 0 {
		wl.Repeat = 5 // the policy deltas are tens of percent; damp noise
	}
	for _, policy := range []numa.AllocPolicy{numa.AllocLocal, numa.AllocInterleaved, numa.AllocSingleSocket} {
		cfg := f.config(cluster.RDMA, true)
		cfg.Topology = numa.FourSocket()
		cfg.AllocPolicy = policy
		c, err := load(cfg, wl)
		if err != nil {
			return nil, err
		}
		res, err := RunOnCluster(c, wl)
		if err != nil {
			c.Close()
			return nil, err
		}
		var local, remote uint64
		for _, n := range c.Nodes {
			l, r := n.Topo.Stats()
			local += l
			remote += r
		}
		c.Close()
		qph := res.QpH()
		frac := 0.0
		if local+remote > 0 {
			frac = float64(remote) / float64(local+remote)
		}
		if policy == numa.AllocLocal {
			baseQpH = qph
		}
		out = append(out, Figure9Point{Policy: policy, QpH: qph, RemoteFrac: frac})
		tab.Add(policy.String(), fmt.Sprintf("%.0f", qph), F2(qph/baseQpH),
			fmt.Sprintf("%.0f%%", frac*100))
	}
	tab.Fprint(w)
	return out, nil
}

// Figure11 measures per-query scalability for every TPC-H query across
// server counts and the three engines. ServerList replaces Setup.Servers.
type Figure11 struct {
	Workload Workload
	Setup
	ServerList []int
}

// Figure11Cell is one (query, servers, engine) speedup.
type Figure11Cell struct {
	Query   int
	Servers int
	Engine  string
	Speedup float64
}

// Run executes the full grid (expensive; trim Workload.Queries and
// ServerList for quick runs).
func (f Figure11) Run(w io.Writer) ([]Figure11Cell, error) {
	if len(f.ServerList) == 0 {
		f.ServerList = []int{1, 2, 4}
	}
	wl := f.Workload.withDefaults()
	// Baselines per query at one server.
	f.Servers = 1
	base, err := RunTPCH(f.config(cluster.RDMA, false), wl)
	if err != nil {
		return nil, err
	}
	var cells []Figure11Cell
	tab := &Table{
		Title:  "Figure 11: per-query scalability (speedup over one server)",
		Header: []string{"query", "engine"},
	}
	for _, s := range f.ServerList {
		tab.Header = append(tab.Header, fmt.Sprintf("%d srv", s))
	}
	for _, q := range wl.Queries {
		for _, e := range figure3Engines {
			row := []string{fmt.Sprintf("Q%d", q), e.Name}
			for _, servers := range f.ServerList {
				var sp float64
				if servers == 1 {
					sp = 1
				} else {
					f.Servers = servers
					res, err := RunTPCH(f.config(e.Transport, e.Sched),
						Workload{SF: wl.SF, Seed: wl.Seed, Queries: []int{q}, Partitioned: wl.Partitioned})
					if err != nil {
						return nil, err
					}
					sp = base.Times[q].Seconds() / res.Times[q].Seconds()
				}
				cells = append(cells, Figure11Cell{Query: q, Servers: servers, Engine: e.Name, Speedup: sp})
				row = append(row, F2(sp))
			}
			tab.Add(row...)
		}
	}
	tab.Fprint(w)
	return cells, nil
}

// SchedulingImpact measures §4.2.2: network scheduling on/off per
// transport (paper: +230% on GbE, ~0% on IPoIB-TCP, +12.2% on RDMA).
// Servers defaults to 4.
type SchedulingImpact struct {
	Workload Workload
	Setup
}

// SchedulingImpactPoint is one transport's improvement.
type SchedulingImpactPoint struct {
	Transport   string
	Improvement float64 // (t_unsched / t_sched) − 1
}

// Run executes the comparison.
func (f SchedulingImpact) Run(w io.Writer) ([]SchedulingImpactPoint, error) {
	f.Setup = f.or(Setup{Servers: 4})
	var out []SchedulingImpactPoint
	tab := &Table{
		Title:  "§4.2.2: impact of network scheduling per transport",
		Header: []string{"transport", "unscheduled", "scheduled", "improvement"},
	}
	for _, e := range []struct {
		name string
		kind cluster.TransportKind
	}{
		{"TCP/GbE", cluster.TCPGbE},
		{"TCP/IPoIB", cluster.TCPoIB},
		{"RDMA", cluster.RDMA},
	} {
		times := map[bool]time.Duration{}
		for _, sched := range []bool{false, true} {
			res, err := RunTPCH(f.config(e.kind, sched), f.Workload)
			if err != nil {
				return nil, err
			}
			times[sched] = res.Total
		}
		imp := times[false].Seconds()/times[true].Seconds() - 1
		out = append(out, SchedulingImpactPoint{Transport: e.name, Improvement: imp})
		tab.Add(e.name, Dur(times[false]), Dur(times[true]), fmt.Sprintf("%+.1f%%", imp*100))
	}
	tab.Fprint(w)
	return out, nil
}

// ScaleFactorScaling reruns the workload at SF and 3×SF (§4.3.3: HyPer
// 3.1×, Vectorwise 2.2×, MemSQL 3.4× from SF 100 → 300).
type ScaleFactorScaling struct {
	Workload Workload
	Setup
}

// Run executes the comparison and returns time(3×SF)/time(SF).
func (f ScaleFactorScaling) Run(w io.Writer) (float64, error) {
	wl := f.Workload.withDefaults()
	cfg := f.config(cluster.RDMA, true)
	small, err := RunTPCH(cfg, wl)
	if err != nil {
		return 0, err
	}
	big := wl
	big.SF = wl.SF * 3
	large, err := RunTPCH(cfg, big)
	if err != nil {
		return 0, err
	}
	ratio := large.Total.Seconds() / small.Total.Seconds()
	tab := &Table{
		Title:  "§4.3.3: input size scaling (SF → 3×SF)",
		Header: []string{"SF", "total", "ratio"},
	}
	tab.Add(fmt.Sprintf("%g", wl.SF), Dur(small.Total), "1.00")
	tab.Add(fmt.Sprintf("%g", big.SF), Dur(large.Total), F2(ratio))
	tab.Fprint(w)
	return ratio, nil
}

// Table1 prints the data-link standard comparison.
func Table1(w io.Writer) *Table {
	tab := &Table{
		Title:  "Table 1: network data link standards",
		Header: []string{"standard", "GB/s", "latency"},
	}
	for _, r := range []fabric.Rate{fabric.GbE, fabric.IB4xSDR, fabric.IB4xDDR, fabric.IB4xQDR, fabric.IB4xFDR, fabric.IB4xEDR} {
		tab.Add(fabric.NameOf(r), fmt.Sprintf("%.3g", float64(r)/1e9), fabric.LatencyOf(r).String())
	}
	tab.Fprint(w)
	return tab
}
