// The experiment table: an explicit array, not self-registering statics,
// so the linker cannot silently drop an experiment.

#include "util.hpp"

namespace bbench {

constexpr Experiment kExperiments[] = {
    {"table1", table1},
    {"fig04_llp_post", fig04_llp_post},
    {"fig06_trace", fig06_trace},
    {"fig07_inj_dist", fig07_inj_dist},
    {"fig08_inj_breakdown", fig08_inj_breakdown},
    {"fig10_lat_breakdown", fig10_lat_breakdown},
    {"fig11_hlp", fig11_hlp},
    {"fig12_overall_inj", fig12_overall_inj},
    {"fig13_e2e_latency", fig13_e2e_latency},
    {"fig14_layer_split", fig14_layer_split},
    {"fig15_categories", fig15_categories},
    {"fig16_on_node", fig16_on_node},
    {"fig17_whatif", fig17_whatif},
    {"ablation_descriptor_path", ablation_descriptor_path},
    {"ablation_completion", ablation_completion},
    {"ablation_poll_batch", ablation_poll_batch},
    {"ablation_switch_count", ablation_switch_count},
    {"ablation_faults", ablation_faults},
    {"ablation_interrupt", ablation_interrupt},
    {"ablation_memory_model", ablation_memory_model},
    {"coll_osu", coll_osu},
    {"sweep_ranks", sweep_ranks},
    {"scaling_cores", scaling_cores},
    {"sweep_msgsize", sweep_msgsize},
    {"sweep_protocol", sweep_protocol},
};

std::span<const Experiment> experiments() { return kExperiments; }

}  // namespace bbench
