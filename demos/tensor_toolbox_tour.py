"""Tour of the field-gradient tensor layer.

Shows the asymmetry parameter for three canonical traceless shapes,
checks that frame rotations leave the spectrum alone, converts an
electronic-structure gradient into the nuclear coupling tensor for a
real species, and samples the angular map that the mesh subcommand
writes out.
"""

import numpy as np

from onersim import (
    EfgTensor,
    NqiTensor,
    asymmetry,
    axial_nqi,
    get_nucleus,
    nqi_from_efg,
    rotate_about_x,
    surface_mesh,
)

print("asymmetry parameter eta for three shapes:")
for label, mat in (
    ("axial (zz against the plane)", axial_nqi(5.0).matrix),
    ("planar extreme diag(1,-1,0) ", np.diag([1.0, -1.0, 0.0])),
    ("intermediate diag(1,2,-3)   ", np.diag([1.0, 2.0, -3.0])),
):
    print(f"  {label}: eta = {asymmetry(NqiTensor(mat)):.6f}")

rng = np.random.default_rng(3)
a = rng.normal(size=(3, 3))
a = (a + a.T) / 2.0
a -= np.eye(3) * np.trace(a) / 3.0
rotated = rotate_about_x(NqiTensor(a), 0.9)
drift = np.max(np.abs(np.sort(np.linalg.eigvalsh(rotated.matrix)) - np.sort(np.linalg.eigvalsh(a))))
print(f"\nrotation moves the frame, not the spectrum: eigenvalue drift {drift:.2e}")
print(f"frame label after rotation: {rotated.frame!r} (E frame in, B frame out)")

nucleus = get_nucleus("9Be")
phi = EfgTensor(np.diag([-0.05, -0.05, 0.10]), unit="au")
coupling = nqi_from_efg(phi, nucleus)
print(f"\n{nucleus.name}: a 0.1 a.u. axial gradient gives Qzz = {coupling.qzz_hz / 1e3:.2f} kHz")

mesh = surface_mesh(coupling, 1.0, 13, 24)
print("\nangular map of n.Q.n along the polar axis (azimuthal mean):")
print(f"{'theta/deg':>10} {'radius/Qzz':>11} {'sign':>5}")
for theta, radius, sign in zip(mesh.theta[::3], mesh.radius[::3], mesh.sign[::3]):
    mean_r = radius.mean() / abs(coupling.qzz_hz * 2 * np.pi)
    print(f"{np.rad2deg(theta):10.1f} {mean_r:11.4f} {int(sign.mean().round()):5d}")
print("\nthe lobe flips sign crossing the magic angle, as 3cos^2 - 1 must")
