// Skew: the §3.1 demonstration plus its mitigation. A shuffle join whose
// key follows a Zipf distribution runs under three engines:
//
//   - static: hybrid parallelism with static hash partitioning — every
//     tuple of a heavy key still lands on its one owning server, whose
//     ingress link becomes the straggler the whole query waits for;
//   - classic: the classic exchange-operator model (n×t fixed parallel
//     units, no stealing) — the Figure 2 baseline;
//   - adaptive: Flow-Join-style skew handling — the send-side exchange
//     samples key hashes through a Space-Saving sketch during the first
//     morsels, all servers agree on the global heavy hitters, then hot
//     build rows are selectively broadcast while hot probe tuples stay on
//     their origin server; cold keys keep hash partitioning.
//
// The comparison runs on the bandwidth-limited GbE transport, where the
// straggler's link bounds the query (on the simulated Infiniband fabric
// this workload is compute-bound and the engines converge).
package main

import (
	"fmt"
	"log"
	"os"

	"hsqp/internal/bench"
	"hsqp/internal/cluster"
)

func main() {
	fmt.Println("skewed shuffle join: static partitioning vs classic exchange vs adaptive skew handling")
	fmt.Println("(Zipf-distributed join key; adaptive = heavy-hitter sketch + selective broadcast)")
	fmt.Println()
	exp := bench.SkewedJoin{
		Setup:     bench.Setup{Servers: 3, Workers: 4},
		Rows:      600_000,
		Keys:      20_000,
		Zipf:      1.1,
		Transport: cluster.TCPGbE,
	}
	if err := exp.Run(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("skew sweep: the same join across Zipf exponents (z=0 is uniform):")
	sweep := bench.SkewSweep{SkewedJoin: bench.SkewedJoin{
		Setup:     bench.Setup{Servers: 3, Workers: 4},
		Rows:      200_000,
		Keys:      20_000,
		Transport: cluster.TCPGbE,
	}}
	if _, err := sweep.Run(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("§3.1 partition-size analysis (no engine, pure distribution):")
	bench.Skew{}.Run(os.Stdout)
}
