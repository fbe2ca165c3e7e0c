package experiments

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"gofi/internal/campaign"
	"gofi/internal/core"
	"gofi/internal/models"
	"gofi/internal/nn"
	"gofi/internal/serialize"
)

// TestCheckpointedCampaignIsReproducible exercises the full production
// workflow: train → checkpoint → reload into a fresh model → campaign.
// The campaign on the reloaded model must match the campaign on the
// original exactly.
func TestCheckpointedCampaignIsReproducible(t *testing.T) {
	skipIfShort(t)
	fx, err := trainedModel("alexnet", 4, 16, 0.2, 42, 6)
	if err != nil {
		t.Fatal(err)
	}
	trained, ds, eligible := fx.Trained, fx.Source, fx.Eligible
	if len(eligible) < 20 {
		t.Fatalf("only %d eligible samples", len(eligible))
	}

	var ckpt bytes.Buffer
	if err := serialize.Save(&ckpt, trained); err != nil {
		t.Fatal(err)
	}
	reloaded, err := models.Build("alexnet", rand.New(rand.NewSource(7777)), 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := serialize.Load(bytes.NewReader(ckpt.Bytes()), reloaded); err != nil {
		t.Fatal(err)
	}

	runCampaign := func(weights nn.Layer) campaign.Aggregate {
		agg, err := campaign.Run(context.Background(), campaign.Config{
			Workers:  2,
			Trials:   30,
			Seed:     5,
			Source:   ds,
			Eligible: eligible,
			NewReplica: func(worker int) (*core.Injector, error) {
				replica, err := models.Build("alexnet", rand.New(rand.NewSource(42)), 4, 16)
				if err != nil {
					return nil, err
				}
				if err := nn.ShareParams(replica, weights); err != nil {
					return nil, err
				}
				return core.New(replica, core.Config{Height: 16, Width: 16, Seed: int64(worker)})
			},
			ArmTrial: func(inj *core.Injector, rng *rand.Rand, _ int) error {
				_, err := inj.InjectRandomNeuron(rng, core.BitFlip{Bit: core.RandomBit})
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}

	if a, b := runCampaign(trained), runCampaign(reloaded); a != b {
		t.Fatalf("campaign diverged after checkpoint round trip: %+v vs %+v", a, b)
	}
}
