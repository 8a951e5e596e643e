"""capmeter: learning-capacity measurement for small models.

Submodules:
    oracle      closed-form references for quadratic energies, PAC-Bayes
                quantities, volume-ratio learning coefficient
    protocol    bootstrapped cross-validated energy-curve estimation
    learners    synthetic data and small reference learners
    estimators  capacity extraction from energy curves
    sgld        Langevin posterior sampling and the incremental protocol
    kernels     numpy training and Langevin kernels
    cli         command-line front end
"""

__version__ = "0.1.0"
