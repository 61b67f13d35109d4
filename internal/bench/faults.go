package bench

import (
	"time"

	"dlsm/internal/faults"
	"dlsm/internal/memnode"
	"dlsm/internal/rdma"
	"dlsm/internal/rpc"
	"dlsm/internal/sim"
)

// FaultScenarios lists the supported Config.FaultScenario values in the
// order -fig faults sweeps them.
var FaultScenarios = []string{"none", "delay", "flap", "outage"}

// applyFaults attaches a deterministic injector implementing
// cfg.FaultScenario to a freshly built deployment. Drops are never used:
// on one-sided data paths a silently dropped WRITE is indistinguishable
// from success and would corrupt the store — real NICs fail the QP
// instead, which is what "flap" and "outage" model.
func applyFaults(env *sim.Env, fab *rdma.Fabric, cns []*rdma.Node, servers []*memnode.Server, cfg Config) {
	inj := faults.New(fab, uint64(cfg.Seed))
	switch cfg.FaultScenario {
	case "", "none":
	case "delay":
		inj.AddRule(faults.Rule{Name: "delay-write", Op: rdma.OpWrite, From: faults.Any, To: faults.Any,
			Prob: 0.05, Delay: 20 * time.Microsecond})
		inj.AddRule(faults.Rule{Name: "delay-read", Op: rdma.OpRead, From: faults.Any, To: faults.Any,
			Prob: 0.05, Delay: 20 * time.Microsecond})
		inj.AddRule(faults.Rule{Name: "delay-send", Op: rdma.OpSend, From: faults.Any, To: faults.Any,
			Prob: 0.2, Delay: 50 * time.Microsecond})
	case "flap":
		// 100us down in every millisecond on the primary compute<->memory
		// link, for the whole run.
		inj.FlapLink(cns[0].ID, servers[0].Node().ID, 100*time.Microsecond, 900*time.Microsecond, 0, 0)
	case "outage":
		// Eight 3ms RPC-service blackouts, 6ms apart — long enough to
		// outlast the full retry schedule. One-sided RDMA to the data
		// regions keeps working throughout; near-data compactions time
		// out, retry, and fall back to the compute node.
		srv := servers[0]
		for i := 0; i < 8; i++ {
			at := sim.Time((1 + 6*i)) * sim.Time(time.Millisecond)
			inj.At(at, srv.StopService)
			inj.At(at+sim.Time(3*time.Millisecond), srv.RestartService)
		}
	default:
		panic("bench: unknown fault scenario " + cfg.FaultScenario)
	}
}

// faultCompactPolicy and faultFreePolicy shrink the engine's RPC retry
// policies to the injected fault windows, so a blackout costs milliseconds
// of virtual time rather than the production multi-second deadlines.
var faultCompactPolicy = rpc.Policy{
	Timeout:     time.Millisecond,
	MaxAttempts: 3,
	Backoff:     100 * time.Microsecond,
	MaxBackoff:  time.Millisecond,
	Jitter:      0.2,
}

var faultFreePolicy = rpc.Policy{
	Timeout:     500 * time.Microsecond,
	MaxAttempts: 2,
	Backoff:     100 * time.Microsecond,
}
