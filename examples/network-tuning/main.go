// Network-tuning: the §2 story as an application. Sweeps the transport
// tuning ladder of Figure 5 (TCP datagram/connected modes, offload,
// interrupt pinning, RDMA) on the simulated InfiniBand fabric, then shows
// the effect of round-robin network scheduling on all-to-all shuffles
// (Figure 10(b)) and what message size it takes to hide the scheduling
// barriers (Figure 10(c)).
package main

import (
	"fmt"
	"log"
	"os"

	"hsqp/internal/bench"
)

func main() {
	for _, id := range []string{"fig5", "fig10b", "fig10c"} {
		e, err := bench.Lookup(id)
		if err != nil {
			log.Fatal(err)
		}
		if err := e.Run(os.Stdout, bench.Args{}); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
