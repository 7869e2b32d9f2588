package mux

import "hsqp/internal/obs"

// Stall metrics on the process-wide registry, aggregated across every
// server's multiplexer: how long senders blocked on a full outbound queue
// (link backpressure) and how long receive pipelines parked waiting for
// input. Both are hot paths, so they are plain nanosecond counters.
var (
	mSendStallNanos = obs.Default().Counter("hsqp_mux_send_stall_nanoseconds_total",
		"Time senders spent blocked on a full outbound queue, in nanoseconds.")
	mRecvStallNanos = obs.Default().Counter("hsqp_mux_recv_stall_nanoseconds_total",
		"Time blocking receives spent parked waiting for messages, in nanoseconds.")
	mDroppedMsgs = obs.Default().Counter("hsqp_mux_dropped_messages_total",
		"Messages released because their query already closed on this server.")
)
