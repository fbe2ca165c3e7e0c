package experiments

import (
	"gofi/internal/core"
	"gofi/internal/scenario"
)

// ScenarioObservers builds the prepared campaign's observer sink, or
// (nil, nil) when no scenario observers are declared. Attach the sink
// to the run (ShardRun.Sinks) and call Report after it finishes; the
// report is deterministic in (Seed, Trials) regardless of Workers and
// scheduling.
func (env *CampaignEnv) ScenarioObservers() (*scenario.Observers, error) {
	if env.Compiled == nil {
		return nil, nil
	}
	return env.Compiled.NewObservers(scenario.ObserverEnv{
		Seed:     env.CampaignSeed,
		Offset:   0,
		Eligible: env.Eligible,
		Source:   env.Source,
		NewReplica: func() (*core.Injector, error) {
			return env.NewReplica(0)
		},
	})
}
