package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"gofi/internal/campaign/stats"
	"gofi/internal/core"
	"gofi/internal/obs"
)

// Granularity selects the injection scope of the per-layer study.
type Granularity int

// Injection granularities (§IV-A proposes layer- and feature-map-level
// studies as the follow-on to the neuron campaigns).
const (
	// GranNeuron flips one random bit in one random neuron of the layer.
	GranNeuron Granularity = iota + 1
	// GranFMap sets one entire random feature map of the layer to U[-1,1).
	GranFMap
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case GranNeuron:
		return "neuron"
	case GranFMap:
		return "fmap"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// LayerVulnConfig drives the per-layer vulnerability profile.
type LayerVulnConfig struct {
	Model           string
	Classes, InSize int
	TrialsPerLayer  int
	TrainEpochs     int
	Noise           float32
	Granularity     Granularity
	Seed            int64
	// Metrics, when non-nil, receives the engines' counters and
	// histograms; all per-layer campaigns share the one registry.
	Metrics *obs.Registry
	// Stop, when on, gives every layer its own sequential stopping rule
	// (TrialsPerLayer then caps the budget), so a robust layer stopping
	// early never shortens a vulnerable layer's measurement; see
	// GenericCampaignConfig.Stop.
	Stop stats.StopRule
}

func (c LayerVulnConfig) canon() LayerVulnConfig {
	if c.Model == "" {
		c.Model = "alexnet"
	}
	if c.TrialsPerLayer <= 0 {
		c.TrialsPerLayer = 300
	}
	if c.Granularity == 0 {
		c.Granularity = GranNeuron
	}
	return c
}

// LayerVulnRow is one layer's vulnerability measurement.
type LayerVulnRow struct {
	Layer    int
	Path     string
	OutShape []int
	LegStat
	// StopTrial is the index this layer's early-stopping rule fired on
	// (-1 when the rule never fired or Stop was off).
	StopTrial int
}

// RunLayerVuln trains a model and measures its Top-1 misclassification
// rate under injections confined to each hooked layer in turn, producing
// the per-layer vulnerability profile that selective-protection studies
// need. Every layer is one engine campaign over the shared FP32 fixture,
// at the engine's default execution settings.
func RunLayerVuln(ctx context.Context, cfg LayerVulnConfig) ([]LayerVulnRow, error) {
	cfg = cfg.canon()
	env, err := PrepareGenericCampaign(ctx, GenericCampaignConfig{
		Model: cfg.Model, Classes: cfg.Classes, InSize: cfg.InSize, TrainEpochs: cfg.TrainEpochs, Noise: cfg.Noise,
		Trials: cfg.TrialsPerLayer, DType: core.FP32, Arm: armLayer(0, cfg.Granularity),
		Seed: cfg.Seed, Metrics: cfg.Metrics, PrefixReuse: true, Stop: cfg.Stop,
	})
	if err != nil {
		return nil, fmt.Errorf("layer-vuln: %w", err)
	}
	return layerVulnRows(ctx, env, cfg.Granularity)
}

// layerVulnRows runs one engine leg per hooked layer of the prepared
// fixture, each on its own engine seed, and folds each into a row.
func layerVulnRows(ctx context.Context, env *CampaignEnv, gran Granularity) ([]LayerVulnRow, error) {
	// The hooked layers are known only on a built replica; the engine
	// builds its own per worker, so this one is discarded.
	probe, err := env.NewReplica(0)
	if err != nil {
		return nil, fmt.Errorf("layer-vuln: %w", err)
	}
	layers := probe.Layers()
	probe.Detach()

	rows := make([]LayerVulnRow, 0, len(layers))
	for _, li := range layers {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		agg, stopTrial, err := env.runLeg(ctx, env.Cfg.Seed+61+int64(li.Index)*37, armLayer(li.Index, gran))
		if err != nil {
			return rows, fmt.Errorf("layer-vuln %s: %w", li.Path, err)
		}
		// Replicas are profiled at the engine's lane count; the row
		// reports the layer's output for one input.
		shape := append([]int(nil), li.OutShape...)
		shape[0] = 1
		rows = append(rows, LayerVulnRow{
			Layer: li.Index, Path: li.Path, OutShape: shape, LegStat: legStat(agg), StopTrial: stopTrial,
		})
	}
	return rows, nil
}

// armLayer returns the arming that confines one trial's fault to the
// given hooked layer at the given granularity.
func armLayer(layer int, gran Granularity) ArmFunc {
	return func(inj *core.Injector, rng *rand.Rand) error {
		if gran == GranFMap {
			shape := inj.Layers()[layer].OutShape
			return inj.InjectFMap(layer, rng.Intn(shape[1]), core.DefaultRandomValue())
		}
		site, err := inj.SiteInLayer(rng, layer, true)
		if err != nil {
			return err
		}
		return inj.DeclareNeuronFI(core.BitFlip{Bit: core.RandomBit}, site)
	}
}
