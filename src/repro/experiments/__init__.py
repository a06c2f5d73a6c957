"""Experiment harnesses — one module per paper table/figure.

=====  ==========================  =======================  =================
id     paper artifact              module                   registry name(s)
=====  ==========================  =======================  =================
E1     Fig 4(a) I/O anatomy        anatomy                  anatomy, anatomy-read
E2     Table I live upgrade        live_upgrade             table1
E3     Fig 5(a) CPU allocation     orchestration_cpu        fig5a
E4     Fig 5(b) partitioning       orchestration_partition  fig5b
E5     Fig 6 storage APIs          storage_api              fig6
E6     Fig 7 metadata              metadata                 fig7
E7     Fig 8 / Table II sched      schedulers               fig8
E8     Fig 9(a) PFS                pfs_eval                 fig9a
E9     Fig 9(b) LABIOS             labios_eval              fig9b
E10    Fig 9(c) Filebench          filebench_eval           fig9c
A1-A5  ablations (repro)           ablations                ablation-*
E11    fault recovery (repro)      fault_recovery           faults
E12    batched submission (repro)  batching                 batching
E13    open-loop overload (repro)  openloop                 openloop
E14    cluster scaling (repro)     cluster_scaling          cluster, cluster-par, pfs-cluster
E15    control plane (repro)       control_plane            control
=====  ==========================  =======================  =================

Each module exposes its point function ``run_*(env, params, seed)`` (one
configuration on the Environment it is handed) and ends by registering
an :class:`~repro.experiments.registry.Experiment`: grid, seeds, table
and paper-shape gates as data.  :mod:`repro.experiments.runner` imports
them all and runs any of them (``python -m repro.experiments <name>``).

Importing this package imports none of them: ``common`` and ``report``
sit on other packages' import paths.
"""
