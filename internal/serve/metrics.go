package serve

// Server-level metric names, published on the server's obs.Registry
// (GET /v1/metrics). Each campaign additionally owns a private registry
// with the engine's campaign.* metrics (GET /v1/campaigns/{id}/metrics).
const (
	// MetricCampaignsSubmitted counts accepted submissions.
	MetricCampaignsSubmitted = "serve.campaigns.submitted"
	// MetricCampaignsDone / Failed / Cancelled count terminal outcomes.
	MetricCampaignsDone      = "serve.campaigns.done"
	MetricCampaignsFailed    = "serve.campaigns.failed"
	MetricCampaignsCancelled = "serve.campaigns.cancelled"
	// MetricShardsLaunched counts engine legs started (a resumed
	// campaign launches a fresh set).
	MetricShardsLaunched = "serve.shards.launched"
	// MetricRecordsFolded counts trial records folded at the frontier.
	MetricRecordsFolded = "serve.records.folded"
	// MetricCheckpointWrites counts durable checkpoint saves.
	MetricCheckpointWrites = "serve.checkpoint.writes"
	// MetricStreamClients gauges currently-connected stream readers.
	MetricStreamClients = "serve.stream.clients"
	// MetricStreamLogBytes counts bytes stream readers read from record
	// logs. A streamer reads each log byte once (plus one buffer of
	// read-ahead), so this stays within a small factor of bytes streamed.
	MetricStreamLogBytes = "serve.stream.log_bytes"
	// MetricHTTPRequests counts API requests served.
	MetricHTTPRequests = "serve.http.requests"
	// MetricEnvCacheHits counts fixture-cache hits (campaigns that
	// skipped training because an equivalent fixture was already built).
	MetricEnvCacheHits = "serve.envcache.hits"
)
