package netx

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Instrumentation for the failure substrate. The hooks are package
// level because netx has no per-component handle: every daemon's
// dials, retries and deadlines flow through the same functions. A
// process instruments once (the -debug-addr path in the daemon mains,
// or a test) and every subsequent operation is counted; before
// Instrument runs, the nil-safe metric types make every update a
// no-op.
//
// Metric names:
//
//	netx_dials_total              connections attempted
//	netx_dial_errors_total        connection attempts that failed
//	netx_retries_total            fn re-invocations inside Retry
//	netx_retry_exhausted_total    Retry calls that ran out of attempts
//	netx_backoff_ms_total         cumulative injected backoff sleep
//	netx_deadline_expiries_total  reads/writes that hit an I/O deadline
//	netx_conn_reuses_total        conversations run on a cached connection
//	netx_idle_conns               idle cached connections, every Dialer
var instr atomic.Pointer[netxMetrics]

type netxMetrics struct {
	dials, dialErrors         *obs.Counter
	retries, retriesExhausted *obs.Counter
	backoffMillis             *obs.Counter
	deadlineExpiries          *obs.Counter
	reuses                    *obs.Counter
	reg                       *obs.Registry
}

// Instrument points the package's counters at reg. Passing nil
// disables instrumentation again.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		instr.Store(nil)
		return
	}
	instr.Store(&netxMetrics{
		dials:            reg.Counter("netx_dials_total"),
		dialErrors:       reg.Counter("netx_dial_errors_total"),
		retries:          reg.Counter("netx_retries_total"),
		retriesExhausted: reg.Counter("netx_retry_exhausted_total"),
		backoffMillis:    reg.Counter("netx_backoff_ms_total"),
		deadlineExpiries: reg.Counter("netx_deadline_expiries_total"),
		reuses:           reg.Counter("netx_conn_reuses_total"),
		reg:              reg,
	})
	reg.GaugeFunc("netx_idle_conns", func() float64 { return float64(idleConns.Load()) })
}

// metrics returns the live metric set, or an empty one whose nil
// counters no-op.
func metrics() *netxMetrics {
	if m := instr.Load(); m != nil {
		return m
	}
	return &netxMetrics{}
}

// Publish registers the injector's live fault counts as gauges on reg,
// so a chaos run's /metrics snapshot shows how hard the network is
// being hit:
//
//	netx_fault_drops, netx_fault_resets, netx_fault_delays,
//	netx_fault_garbles
func (f *Faults) Publish(reg *obs.Registry) {
	reg.GaugeFunc("netx_fault_drops", func() float64 { return float64(f.Stats().Drops) })
	reg.GaugeFunc("netx_fault_resets", func() float64 { return float64(f.Stats().Resets) })
	reg.GaugeFunc("netx_fault_delays", func() float64 { return float64(f.Stats().Delays) })
	reg.GaugeFunc("netx_fault_garbles", func() float64 { return float64(f.Stats().Garbles) })
}
