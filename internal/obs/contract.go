package obs

// The trace-event contract: every event family that one package emits
// and another folds, spelled once. Emitters and consumers use these
// constants; each carries its row of the table — emitter → consumers:
// attributes, optional ones in brackets — and DESIGN.md §12 holds the same
// table with prose. Attribute values are strings, integers in base 10.
// Consumers ignore names they do not know, so the stream may carry more
// (admit.*, sched.accept, other span ops) that only humans and the span
// forest read. A rule's next hop is a switch name or "host" for local
// delivery, and cmd "del" removes the rule whatever next says.

// Point and interval events (Event.Name).
const (
	EvSched         = "sched"          // mutp → audit: switch; VT is the planned tick
	EvCtlFlowMod    = "ctl.flowmod"    // controller → audit, state, mutp: switch, at (0 = immediate), key, next
	EvCtlDisconnect = "ctl.disconnect" // controller → health: switch, err
	EvSwFlowMod     = "sw.flowmod"     // switchd → audit, state, mutp: switch, kind (immediate|timed), [at], key, cmd, next
	EvSwApply       = "sw.apply"       // switchd → audit, state, health, clock, mutp: switch, skew, at, key, cmd, next
	EvSwBarrier     = "sw.barrier"     // switchd → audit, mutp: switch
	EvEmuInject     = "emu.inject"     // emu → audit: switch, key, rate
	EvEmuRate       = "emu.rate"       // emu → audit, state: link (u>v), key, rate, total, cap, delay
	EvEmuOverload   = "emu.overload"   // emu → audit: link, peak, cap; Dur is the interval
	EvEmuDrop       = "emu.drop"       // emu → audit, state: switch, key, reason (no_rule|ttl_expired)
	EvStateIntent   = "state.intent"   // state.Intent.Emit → state: id, tenant, flow, key, kind (execute|plan), method, slack, switches (SW=NEXT@TICK;...)
)

// Span ops (the KeyOp attribute of a SpanEventName event, after span and
// [parent]). EvSwBarrier and EvSwApply are span ops too: switchd → clock
// (barrier only), chronusd cost: switch, xid, [skew].
const (
	OpSolve      = "solve"       // scheme → chronusd cost: scheme
	OpCtlSend    = "ctl.send"    // controller → clock, chronusd cost: switch, xid, kind (flowmod|barrier), [at]
	OpCtlBarrier = "ctl.barrier" // controller → chronusd cost: switches
)

// Attribute keys of the families above.
const (
	KeyOp       = "op"
	KeySwitch   = "switch"
	KeyKey      = "key"
	KeyCmd      = "cmd"
	KeyNext     = "next"
	KeyAt       = "at"
	KeyKind     = "kind"
	KeySkew     = "skew"
	KeyXid      = "xid"
	KeyLink     = "link"
	KeyRate     = "rate"
	KeyTotal    = "total"
	KeyCap      = "cap"
	KeyDelay    = "delay"
	KeyPeak     = "peak"
	KeyReason   = "reason"
	KeyID       = "id"
	KeyTenant   = "tenant"
	KeyFlow     = "flow"
	KeyMethod   = "method"
	KeySlack    = "slack"
	KeySwitches = "switches"
)
