package experiments

import (
	"gofi/internal/campaign"
	"gofi/internal/core"
	"gofi/internal/scenario"
)

// ScenarioConfig maps a declarative scenario onto a
// GenericCampaignConfig: the scenario's run block fills the execution
// knobs, and the scenario itself rides along in Scenario so
// PrepareGenericCampaign derives the fault shape (model fixture,
// backend, dtype, scope) from it and compiles the arming hook. CLI
// flags may override the returned run knobs afterwards — they are
// budget controls and never change which fault a trial index arms.
func ScenarioConfig(sc scenario.Scenario) (GenericCampaignConfig, error) {
	sc = sc.Canon()
	if err := sc.Validate(); err != nil {
		return GenericCampaignConfig{}, err
	}
	cfg := GenericCampaignConfig{
		Trials:      sc.Run.Trials,
		Workers:     sc.Run.Workers,
		Seed:        sc.Run.Seed,
		PrefixReuse: true,
		Stop:        sc.Run.Stop.Rule(),
		Scenario:    &sc,
	}
	if sc.Run.SkipErrors {
		cfg.OnError = campaign.SkipAndCount
	}
	return cfg, nil
}

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
