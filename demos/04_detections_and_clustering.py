"""From raw detections to company-size unit hypotheses.

Runs the detection and single-linkage clustering front end of the bundled
brigade scenario: individual vehicles are too small to identify reliably,
so the net is seeded with company-size clusters instead.
"""

from importlib import resources

import numpy as np

from percept import World, cluster_detections, generate_detections, load_scenario

scenario_path = resources.files("percept") / "scenarios" / "brigade.json"
mb = load_scenario(str(scenario_path))
world = World.from_dict(mb)

rng = np.random.default_rng(7)
detections = generate_detections(world, rng=rng)
true = [d for d in detections if not d.is_false_alarm]
false = [d for d in detections if d.is_false_alarm]
print(f"{len(world.vehicles())} vehicles on the ground, detect_prob {world.detect_prob}")
print(f"-> {len(true)} true detections, {len(false)} false alarms")

base = mb.hypothesis_set(mb.leaf_group())
clusters = cluster_detections(detections, world.cluster_params, base=base)
print(f"\n{len(clusters)} company-size cluster hypotheses "
      f"(min {world.cluster_params.min_count} members, "
      f"linkage distance {world.cluster_params.max_intervehicle_distance}):")
for k, c in enumerate(clusters, start=1):
    print(f"  u{k}: {len(c.members)} detections at "
          f"({c.centroid[0]:.1f}, {c.centroid[1]:.1f}), "
          f"extent {c.extent:.1f}, mean strength {c.strength:.2f}")
    seeds = ", ".join(f"{lab}={p:.3f}" for lab, p in zip(c.seed.labels, c.seed.priors))
    print(f"      seed priors: {seeds}")
