// Package rdma keeps the names the benchmark's probe mesh compiles
// against. The endpoint itself is nic.Endpoint under the nic.RDMA sheet.
package rdma

import (
	"hsqp/internal/fabric"
	"hsqp/internal/memory"
	"hsqp/internal/nic"
)

// Endpoint is one server's RDMA port.
type Endpoint = nic.Endpoint

// NewEndpoint wires an RDMA endpoint to fabric port `port`; see nic.New.
func NewEndpoint(fab *fabric.Fabric, port int,
	recvAlloc func() *memory.Message,
	onRecv func(*memory.Message),
	onInline func(src int, tag uint32)) *Endpoint {
	return nic.New(fab, port, nic.RDMA(), recvAlloc, onRecv, onInline)
}
