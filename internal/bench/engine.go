package bench

import "fmt"

// Engine selects which simulation engine executes a measurement. Both
// produce identical cycle counts, bandwidth counters, and memory
// images — the differential suite pins the production engine to the
// reference — so the choice trades debuggability against throughput,
// never correctness. The zero value is EngineCompiled: the production
// default throughout the harness, the explorer, and the service.
type Engine int8

const (
	// EngineCompiled is the threaded-code engine: one lowering per
	// compile, specialized closures per operation, memory arenas sized
	// to the program. The fast path and the default.
	EngineCompiled Engine = iota
	// EngineMachine is the interpretive reference engine with the
	// debugging hooks (tracing, per-instruction callbacks, port
	// assertions) — the oracle the compiled engine is pinned against.
	EngineMachine
)

func (e Engine) String() string {
	switch e {
	case EngineCompiled:
		return "compiled"
	case EngineMachine:
		return "machine"
	}
	return fmt.Sprintf("Engine(%d)", int8(e))
}

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "compiled":
		return EngineCompiled, nil
	case "machine":
		return EngineMachine, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want compiled or machine)", s)
}
