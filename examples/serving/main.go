// Serving over the network: stand up the hsqpd serving tier on a loopback
// socket in-process, then walk one statement through its two latency paths
// — executed (statement build + per-server compile + execution, the same
// on the first request and on every repeat) and result-cache hit (encoded
// bytes, no execution at all) — plus a prepared-statement round trip and
// the per-tenant snapshot.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"hsqp"
)

func main() {
	c, err := hsqp.NewCluster(hsqp.ClusterConfig{
		Servers:          3,
		WorkersPerServer: 4,
		Transport:        hsqp.RDMA,
		Scheduling:       true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	const sf = 0.01
	fmt.Printf("loading TPC-H SF %g over 3 servers…\n", sf)
	c.LoadTPCH(hsqp.GenerateTPCH(sf, 42), false)

	// The serving tier wraps the cluster: wire protocol, single-flight
	// result cache, and a Session whose queue shares the two slots 4:1
	// between the tenants when both have requests waiting.
	srv := hsqp.NewServer(hsqp.ServeConfig{
		Cluster: c,
		SF:      sf,
		Seed:    42,
		Tenants: map[string]int{"analytics": 4, "adhoc": 1},
		Slots:   2,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Shutdown()

	cl, err := hsqp.DialServer(lis.Addr().String(), "analytics")
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	run := func(label string, opts hsqp.ExecOpts) {
		t0 := time.Now()
		res, st, err := cl.ExecWithOpts("q12", opts)
		if err != nil {
			log.Fatal(err)
		}
		path := "executed"
		if st.ResultHit {
			path = "result-cache hit"
		}
		fmt.Printf("  %-22s %3d rows in %8s  (%s)\n", label, res.Rows(),
			time.Since(t0).Round(time.Microsecond), path)
	}

	fmt.Println("\nq12 two ways:")
	run("first request", hsqp.ExecOpts{})                   // builds + compiles + executes, fills the result cache
	run("repeat", hsqp.ExecOpts{})                          // encoded bytes only
	run("bypassed", hsqp.ExecOpts{BypassResultCache: true}) // executes again: nothing compiled is kept

	// Prepare validates the statement on every server and returns its
	// result schema; executing through the handle compiles like any Exec.
	stmt, err := cl.Prepare("q5")
	if err != nil {
		log.Fatal(err)
	}
	res, st, err := stmt.Exec()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprepared q5: %d rows, %d result fields, queue %s + compile %s + execute %s\n",
		res.Rows(), len(stmt.Schema().Fields),
		st.QueueWait.Round(time.Microsecond), st.Compile.Round(time.Microsecond),
		st.Exec.Round(time.Microsecond))
	stmt.Close()

	fmt.Println("\nper-tenant snapshot (latency as the server timed it, weight from the session's queue):")
	for _, ts := range srv.TenantStats() {
		fmt.Printf("  %-10s weight %d  served %3d  queue p99 %s\n",
			ts.Tenant, ts.Weight, ts.Served, ts.QueueP99.Round(time.Microsecond))
	}
	rc := srv.ResultCacheStats()
	fmt.Printf("result cache: %d hit / %d miss (%d B)\n", rc.Hits, rc.Misses, rc.Bytes)
}
