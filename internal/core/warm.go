package core

import (
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/tpcache"
	"hypertp/internal/uisr"
)

// PreStageTranslations warms the transplant cache for up to budget of
// the hypervisor's transplantable VMs: pause, save and encode the
// platform state exactly as InPlaceTP's cold path would, store it as a
// warm entry, resume. VMs that are already cached, already paused, or
// not InPlaceTP-compatible are skipped. Pure wall-clock work — no
// virtual time is charged, which is the point: the pool is filled
// outside any vulnerability window, so a later transplant skips the
// cold save inside one.
func PreStageTranslations(hyp hv.Hypervisor, m *hw.Machine, cache *tpcache.Cache, budget int) (int, error) {
	gen := m.Generation()
	kind := hyp.Kind()
	staged := 0
	for _, vm := range hyp.VMs() {
		if staged >= budget {
			break
		}
		if !vm.Config.InPlaceCompatible || vm.Paused() {
			continue
		}
		if cache.HasTranslation(kind, m, gen, vm.ID) {
			continue
		}
		if err := hyp.Pause(vm.ID); err != nil {
			return staged, err
		}
		st, err := hyp.SaveUISR(vm.ID)
		if err != nil {
			_ = hyp.Resume(vm.ID)
			return staged, err
		}
		// The memory map travels via PRAM, not the UISR blob — mirror
		// the engine's cold save so the staged bytes are the ones a cold
		// transplant would produce.
		st.MemMap = uisr.MemMap{}
		blob, err := uisr.Encode(st)
		if err != nil {
			_ = hyp.Resume(vm.ID)
			return staged, err
		}
		cache.StoreTranslation(kind, m, gen, vm.ID, blob, true)
		if err := hyp.Resume(vm.ID); err != nil {
			return staged, err
		}
		staged++
	}
	return staged, nil
}
