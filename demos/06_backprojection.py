"""Lasso back-projection of learned branch codes into voxel space.

Regresses each latent dimension of a trained model's branch codes on the
voxels (one L1 fit per dimension) and averages absolute coefficients by
region. Detail-branch codes should lean on low-level voxels relatively
more than semantic-branch codes do, confirming that the two branches
picked up the planted functional split.
"""

from voxalign import SynthConfig, split_regions, synth_generate
from voxalign.lasso import backproject
from voxalign.model import desk_config, image_branch_forward
from voxalign.training import TrainConfig, train

dataset = synth_generate(SynthConfig(n_train=256, n_test=64, seed=0))
params, _ = train(dataset, desk_config(), TrainConfig(epochs=60, seed=0), variant="full")

tr = dataset.train_slice
vox_sem, vox_det = split_regions(dataset.voxels, dataset.mask)
fwd = image_branch_forward(vox_sem[tr], vox_det[tr], params)

print("back-projecting 128 latent dimensions per branch (lambda = 0.01)...")
results = backproject(
    {"image_detail": fwd.code_det, "image_semantic": fwd.code_sem}, dataset.voxels[tr], dataset.mask, 0.01
)

print()
print("branch           mean |beta| low    mean |beta| high    low/high ratio")
for name, result in results.items():
    low = result.region_means["low_level"]
    high = result.region_means["high_level"]
    print(f"{name:16s} {low:18.5f} {high:19.5f} {low / high:17.3f}")

print()
print("The detail branch weights low-level voxels relatively more than the")
print("semantic branch does, matching the planted region hierarchy.")
