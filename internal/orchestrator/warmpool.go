package orchestrator

import (
	"fmt"

	"hypertp/internal/core"
	"hypertp/internal/tpcache"
)

// SetWarmPool attaches a transplant cache and a pool-size target to the
// manager. WarmPoolRefill then pre-stages UISR translations for up to
// slots transplantable VMs across the fleet, so the transplants of the
// next RespondToCVE start from cache hits instead of cold saves. The
// cache should be the same one passed to the fleet's core.Options, or
// the staged entries will never be consulted. A nil cache detaches.
func (n *Nova) SetWarmPool(cache *tpcache.Cache, slots int) {
	n.warmCache = cache
	n.warmSlots = slots
}

// WarmPool returns the attached warm-pool cache and slot target.
func (n *Nova) WarmPool() (*tpcache.Cache, int) { return n.warmCache, n.warmSlots }

// WarmPoolRefill tops the warm pool back up to its slot target:
// fleet-wide, in node-name order, it pre-stages the UISR translation of
// transplantable VMs that have no cached entry yet. Each VM is paused
// just long enough to save and encode its platform state — pure
// wall-clock work that charges no virtual time, which is the point: the
// pool is filled outside any vulnerability window, so RespondToCVE's
// transplants skip the cold save inside one.
//
// When the fleet limits bound SpareSlots (SetFleetLimits), one refill
// pass stages at most that many entries — refilling competes with evacuations for
// spare capacity, so it is throttled by the same knob.
func (n *Nova) WarmPoolRefill() (int, error) {
	if n.warmCache == nil {
		return 0, fmt.Errorf("nova: no warm pool configured")
	}
	want := n.warmSlots - n.warmCache.WarmSlots()
	if want <= 0 {
		return 0, nil
	}
	if spare := n.fleetLimits.SpareSlots; spare > 0 && want > spare {
		want = spare
	}
	sp := n.obs.Start("nova.warm-pool-refill")
	defer sp.End()
	staged := 0
	for _, name := range n.order {
		if staged >= want {
			break
		}
		if n.quarantined[name] {
			continue
		}
		k, err := n.nodes[name].Driver.PreStageTranslations(n.warmCache, want-staged)
		staged += k
		if err != nil {
			sp.SetAttr("staged", staged)
			return staged, fmt.Errorf("nova: warm pool refill on %s: %w", name, err)
		}
	}
	sp.SetAttr("staged", staged)
	n.obs.Metrics().Counter("nova.warm_pool_staged", "entries").Add(int64(staged))
	return staged, nil
}

// PreStageTranslations warms the transplant cache for up to budget of
// this host's transplantable VMs (see core.PreStageTranslations).
func (d *LibvirtDriver) PreStageTranslations(cache *tpcache.Cache, budget int) (int, error) {
	return core.PreStageTranslations(d.hyp, d.engine.Machine, cache, budget)
}
