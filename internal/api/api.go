// Package api is the single source of truth for chronusd's HTTP
// surface. The daemon builds its mux from this table (and panics at
// boot on a table/handler mismatch), and docs_test.go fails when a
// listed endpoint is missing from the README's endpoint table — so an
// endpoint cannot be added, renamed or removed in one place only.
package api

// Endpoint describes one chronusd route.
type Endpoint struct {
	// Method and Path form the mux pattern ("GET /spans").
	Method string
	Path   string
	// Doc is the one-line description used by documentation.
	Doc string
}

// Endpoints lists every chronusd route, GETs first, each group in
// registration order.
var Endpoints = []Endpoint{
	{"GET", "/status", "daemon status: virtual time, switch and link counts, congested links, whether the one migration is claimed"},
	{"GET", "/topology", "topology as adjacency (switch names and links)"},
	{"GET", "/links", "per-link load, capacity and utilization"},
	{"GET", "/switches/{name}/rules", "one switch's forwarding rules"},
	{"GET", "/bandwidth", "recent bandwidth samples of the monitored link"},
	{"GET", "/packetins", "PacketIn notifications received by the controller"},
	{"GET", "/metrics", "Prometheus text exposition of every registered metric"},
	{"GET", "/trace", "trace events: JSONL stream, or a JSON page with ?since= and ?limit="},
	{"GET", "/spans", "causal span forest of recent updates, with ?since=/?limit= paging"},
	{"GET", "/health", "live SLO verdict: slack margins, burn, OK/WARN/CRIT rules"},
	{"GET", "/clocks", "per-switch clock-quality estimates: offset, drift, jitter, barrier RTT"},
	{"GET", "/audit", "consistency audit of every trace event of this daemon life (violations, critical path)"},
	{"GET", "/schemes", "registered update schemes"},
	{"GET", "/dash", "self-contained HTML dashboard (spans timeline + health tiles)"},
	{"GET", "/watch", "live SSE stream of trace events and spans, resumable with ?since= or Last-Event-ID"},
	{"GET", "/queue", "admission queue: depth, waves, per-tenant accounting, capacity-ledger utilization"},
	{"GET", "/updates/{id}", "update lifecycle (queued/planning/executing/done states) by admission id, with an execute update's cost report"},
	{"GET", "/state", "time-travel observed-state snapshot (tables, pending FlowMods, link rates, update overlays) at ?at=<tick>"},
	{"GET", "/drift", "desired-vs-observed drift: each update's planned end-state diffed against the observed tables (converging/stranded/diverged) with per-switch evidence"},
	{"GET", "/links/{from}/{to}/timeline", "one link's utilization timeseries from ?since=<tick>, ring-served with journal backfill for older ticks"},
	{"POST", "/advance", "advance virtual time by ?ticks="},
	{"POST", "/update", "enqueue a path update through the admission pipeline (sync by default; \"async\": true returns 202 + id)"},
}
