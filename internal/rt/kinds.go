package rt

import (
	"flag"
	"fmt"

	"presto/internal/network"
)

// The Parse* helpers validate the string forms of the machine's
// user-selectable kinds (flag values, HTTP experiment specs). An empty
// string parses to the kind's default, matching Config.withDefaults, so
// callers can normalize and validate in one step.

// ParseProtocol validates a coherence-protocol name.
func ParseProtocol(s string) (ProtocolKind, error) {
	switch ProtocolKind(s) {
	case "":
		return ProtoStache, nil
	case ProtoStache, ProtoPredictive, ProtoUpdate:
		return ProtocolKind(s), nil
	}
	return "", fmt.Errorf("rt: unknown protocol %q (want %q, %q or %q)",
		s, ProtoStache, ProtoPredictive, ProtoUpdate)
}

// ParseEngine validates a kernel-engine name.
func ParseEngine(s string) (EngineKind, error) {
	switch EngineKind(s) {
	case "":
		return EngineSerial, nil
	case EngineSerial, EngineParallel:
		return EngineKind(s), nil
	}
	return "", fmt.Errorf("rt: unknown engine %q (want %q or %q)", s, EngineSerial, EngineParallel)
}

// BindFlags registers the run-configuration flags the CLIs share on fs:
// -net, -aggregate, -engine, -workers and -profile, plus — when sized —
// the machine shape -nodes, -block and -protocol (paperbench leaves the
// shape to its experiments). After fs.Parse the returned function
// assembles the Config and validates it, so a bad value is one error
// line and a usage exit instead of a panic inside New.
func BindFlags(fs *flag.FlagSet, sized bool) func() (Config, error) {
	var c Config
	var protocol, engine, net string
	if sized {
		fs.IntVar(&c.Nodes, "nodes", 32, "simulated node count")
		fs.IntVar(&c.BlockSize, "block", 32, "cache block size in bytes")
		fs.StringVar(&protocol, "protocol", string(ProtoStache), "coherence protocol: stache, predictive or update")
	}
	fs.StringVar(&net, "net", "", "interconnect preset (default cm5): "+network.Grammars())
	fs.BoolVar(&c.Aggregate, "aggregate", false, "enable node-leader message aggregation (hierarchical -net presets)")
	fs.StringVar(&engine, "engine", string(EngineSerial), "kernel engine: serial or parallel")
	fs.IntVar(&c.Workers, "workers", 0, "parallel-engine workers (0 = GOMAXPROCS)")
	fs.BoolVar(&c.Profile, "profile", false, "enable the causal profiler: exact time attribution and the critical path")
	return func() (Config, error) {
		c.Protocol, c.Engine = ProtocolKind(protocol), EngineKind(engine)
		if net != "" {
			p, err := network.Preset(net)
			if err != nil {
				return c, err
			}
			c.Net = p
		}
		return c, c.Validate()
	}
}
