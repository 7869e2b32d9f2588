package bench

import (
	"fmt"
	"io"
	"time"

	"hsqp/internal/cluster"
	"hsqp/internal/fabric"
	"hsqp/internal/numa"
	"hsqp/internal/plan"
	"hsqp/internal/report"
)

// figure2 sweeps the number of cores per server (1, 2, 4; 8 as well under
// -full) for hybrid parallelism vs the classic exchange-operator model:
// hybrid keeps scaling, classic plateaus because its n×t fixed parallel
// units fragment the work, shrink message batching and cannot steal from
// stragglers. Each step builds one cluster and runs both models on it.
func figure2(w io.Writer, a Args) error {
	steps := []int{1, 2, 4}
	if a.Full {
		steps = append(steps, 8)
	}
	tab := &report.Table{
		Title:  "Figure 2: hybrid vs classic exchange, scaling with cores per server",
		Header: []string{"cores/server", "hybrid", "classic", "hybrid speedup", "classic speedup"},
	}
	var base []RunResult // hybrid, classic at the first step
	s := a.Setup
	for _, cores := range steps {
		s.Workers = cores
		res, err := RunVariants(s.config(cluster.RDMA, true), a.Workload, plan.Options{}, plan.Options{Classic: true})
		if err != nil {
			return err
		}
		if base == nil {
			base = res
		}
		tab.Add(fmt.Sprintf("%d", cores), report.Dur(res[0].Total), report.Dur(res[1].Total),
			report.F2(base[0].Total.Seconds()/res[0].Total.Seconds()),
			report.F2(base[1].Total.Seconds()/res[1].Total.Seconds()))
	}
	tab.Fprint(w)
	return nil
}

// figure3Engines are the paper's three engines, in display order.
var figure3Engines = []struct {
	Name      string
	Transport cluster.TransportKind
	Sched     bool
}{
	{"RDMA+sched", cluster.RDMA, true},
	{"TCP/IPoIB", cluster.TCPoIB, false},
	{"TCP/GbE", cluster.TCPGbE, false},
}

// figure3 scales the cluster from 1 to 4 servers (6 under -full) of 3
// workers at a fixed data set size for the three engines. The paper: RDMA
// reaches 3.5× at 6 servers, IPoIB-TCP hovers near 1×, GbE drops to ~1/6×.
// The sweep sets the cluster size itself, so -servers does not apply.
func figure3(w io.Writer, a Args) error {
	maxServers := 4
	if a.Full {
		maxServers = 6
	}
	// Single-server baseline: no network involved, one engine suffices.
	s := Setup{Servers: 1, Workers: 3}
	base, err := RunTPCH(s.config(cluster.RDMA, false), a.Workload)
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title:  "Figure 3: cluster scale-out speedup over one server (fixed data size)",
		Header: []string{"servers", "RDMA+sched", "TCP/IPoIB", "TCP/GbE"},
	}
	tab.Add("1", "1.00", "1.00", "1.00")
	for s.Servers = 2; s.Servers <= maxServers; s.Servers++ {
		row := []string{fmt.Sprintf("%d", s.Servers)}
		for _, e := range figure3Engines {
			res, err := RunTPCH(s.config(e.Transport, e.Sched), a.Workload)
			if err != nil {
				return err
			}
			row = append(row, report.F2(base.Total.Seconds()/res.Total.Seconds()))
		}
		tab.Add(row...)
	}
	tab.Fprint(w)
	return nil
}

// figure9 compares message-buffer allocation policies on the 4-socket
// server (NUMA-aware vs interleaved vs one-socket); the paper measures
// −17% and −52% of queries/hour respectively. Workers defaults to 8
// (spread over the 4 sockets) and TimeScale to 2: Figure 9 measures an
// *intra-server* memory effect — the paper's 4-socket box is QPI-bound, not
// network-bound — and a small time scale keeps the simulated network out
// of the critical path so the buffer-placement penalty is visible. The
// remote-bytes column is the measured fraction of message bytes that
// crossed QPI — the deterministic mechanism behind the deltas.
func figure9(w io.Writer, a Args) error {
	s := a.Setup.or(Setup{Workers: 8, TimeScale: 2})
	tab := &report.Table{
		Title:  "Figure 9: NUMA-aware message allocation, 4-socket server",
		Header: []string{"allocation", "queries/hour", "relative", "remote bytes"},
	}
	var baseQpH float64
	wl := a.Workload
	if wl.Repeat == 0 {
		wl.Repeat = 5 // the policy deltas are tens of percent; damp noise
	}
	for _, policy := range []numa.AllocPolicy{numa.AllocLocal, numa.AllocInterleaved, numa.AllocSingleSocket} {
		cfg := s.config(cluster.RDMA, true)
		cfg.Topology = numa.FourSocket()
		cfg.AllocPolicy = policy
		c, err := load(cfg, wl.fill)
		if err != nil {
			return err
		}
		res, err := RunOnCluster(c, wl)
		if err != nil {
			c.Close()
			return err
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
		tab.Add(policy.String(), fmt.Sprintf("%.0f", qph), report.F2(qph/baseQpH),
			fmt.Sprintf("%.0f%%", frac*100))
	}
	tab.Fprint(w)
	return nil
}

// figure11 measures per-query scalability for every query of the workload
// across 1, 2 and 4 servers (1–6 under -full) and the three engines. The
// grid is expensive: without -full it runs the quick query subset.
func figure11(w io.Writer, a Args) error {
	serverList := []int{1, 2, 4}
	if a.Full {
		serverList = []int{1, 2, 3, 4, 5, 6}
	}
	wl := a.Workload.withDefaults()
	// Baselines per query at one server.
	s := Setup{Servers: 1}
	base, err := RunTPCH(s.config(cluster.RDMA, false), wl)
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title:  "Figure 11: per-query scalability (speedup over one server)",
		Header: []string{"query", "engine"},
	}
	for _, n := range serverList {
		tab.Header = append(tab.Header, fmt.Sprintf("%d srv", n))
	}
	for _, q := range wl.Queries {
		for _, e := range figure3Engines {
			row := []string{fmt.Sprintf("Q%d", q), e.Name}
			for _, servers := range serverList {
				sp := 1.0
				if servers > 1 {
					s.Servers = servers
					res, err := RunTPCH(s.config(e.Transport, e.Sched),
						Workload{SF: wl.SF, Seed: wl.Seed, Queries: []int{q}, Partitioned: wl.Partitioned})
					if err != nil {
						return err
					}
					sp = base.Times[q].Seconds() / res.Times[q].Seconds()
				}
				row = append(row, report.F2(sp))
			}
			tab.Add(row...)
		}
	}
	tab.Fprint(w)
	return nil
}

// schedulingImpact measures §4.2.2: network scheduling on/off per
// transport (paper: +230% on GbE, ~0% on IPoIB-TCP, +12.2% on RDMA).
// Servers defaults to 4.
func schedulingImpact(w io.Writer, a Args) error {
	s := a.Setup.or(Setup{Servers: 4})
	tab := &report.Table{
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
			res, err := RunTPCH(s.config(e.kind, sched), a.Workload)
			if err != nil {
				return err
			}
			times[sched] = res.Total
		}
		imp := times[false].Seconds()/times[true].Seconds() - 1 // (t_unsched / t_sched) − 1
		tab.Add(e.name, report.Dur(times[false]), report.Dur(times[true]), fmt.Sprintf("%+.1f%%", imp*100))
	}
	tab.Fprint(w)
	return nil
}

// scaleFactorScaling reruns the workload at SF and 3×SF (§4.3.3: HyPer
// 3.1×, Vectorwise 2.2×, MemSQL 3.4× from SF 100 → 300).
func scaleFactorScaling(w io.Writer, a Args) error {
	wl := a.Workload.withDefaults()
	cfg := a.Setup.config(cluster.RDMA, true)
	small, err := RunTPCH(cfg, wl)
	if err != nil {
		return err
	}
	big := wl
	big.SF = wl.SF * 3
	large, err := RunTPCH(cfg, big)
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title:  "§4.3.3: input size scaling (SF → 3×SF)",
		Header: []string{"SF", "total", "ratio"},
	}
	tab.Add(fmt.Sprintf("%g", wl.SF), report.Dur(small.Total), "1.00")
	tab.Add(fmt.Sprintf("%g", big.SF), report.Dur(large.Total), report.F2(large.Total.Seconds()/small.Total.Seconds()))
	tab.Fprint(w)
	return nil
}

// table1 prints the data-link standard comparison.
func table1(w io.Writer, _ Args) error {
	tab := &report.Table{
		Title:  "Table 1: network data link standards",
		Header: []string{"standard", "GB/s", "latency"},
	}
	for _, r := range []fabric.Rate{fabric.GbE, fabric.IB4xSDR, fabric.IB4xDDR, fabric.IB4xQDR, fabric.IB4xFDR, fabric.IB4xEDR} {
		tab.Add(fabric.NameOf(r), fmt.Sprintf("%.3g", float64(r)/1e9), fabric.LatencyOf(r).String())
	}
	tab.Fprint(w)
	return nil
}
