"""Wavelet-domain audio conditioning for a toy denoising-diffusion harness.

The package root exports nothing: import from the submodules.  They are
tensor (autodiff core), wavelet (2-D Haar transform), msm (spectral
conditioning of audio embeddings), sfm (sub-band feature filter),
diffusion/training (toy DDPM harness), metrics (video/motion evaluation),
datakit (clip manifests), sgtf (tensor files) and cli (command-line surface).
"""
