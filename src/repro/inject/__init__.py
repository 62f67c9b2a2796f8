"""Gate-level fault injection: the Hamartia analog plus Figure 10/11 math."""

from repro.inject.campaign import (UNIT_ORDER, build_unit, run_full_campaign,
                                   run_unit_campaign, unit_inputs)
from repro.inject.classify import (DETECTION_CLASSES, Estimate,
                                   detection_coverage, detection_outcomes,
                                   record_is_detected, sdc_risk,
                                   sdc_risk_sweep, severity_distribution,
                                   split_into_registers)
from repro.inject.hamartia import (SEVERITY_CLASSES, CampaignResult,
                                   FaultInjector, InjectionRecord,
                                   classify_severity, merge_results)
from repro.inject.operands import (OPERAND_KINDS, OperandTrace,
                                   synthetic_operands)
from repro.inject.engine import (OUTCOMES, CampaignEngine, CampaignReport,
                                 EngineConfig, UnitReport, WilsonEstimate,
                                 WorkUnit, gate_work_unit, gpu_work_unit,
                                 make_scheme, merged_gate_results,
                                 register_unit_kind, wilson_interval)
from repro.inject.fabric import (CampaignFabric, FabricConfig, FabricReport,
                                 partition_units, run_fabric_campaign)
from repro.inject.journal import Journal, JournalState
from repro.inject.lease import Lease, LeaseTable, rebase_journal
from repro.inject.merge import (MergedCampaign, ShardSource,
                                merge_fabric_dir, merge_shard_journals,
                                write_merged_report)
from repro.inject.supervisor import (CampaignSupervisor, ResourceBudget,
                                     SupervisorConfig)

__all__ = [
    "UNIT_ORDER", "build_unit", "run_full_campaign", "run_unit_campaign",
    "unit_inputs",
    "DETECTION_CLASSES", "Estimate", "detection_coverage",
    "detection_outcomes", "record_is_detected", "sdc_risk",
    "sdc_risk_sweep", "severity_distribution", "split_into_registers",
    "SEVERITY_CLASSES", "CampaignResult", "FaultInjector", "InjectionRecord",
    "classify_severity", "merge_results",
    "OPERAND_KINDS", "OperandTrace", "synthetic_operands",
    "OUTCOMES", "CampaignEngine", "CampaignReport", "EngineConfig",
    "UnitReport", "WilsonEstimate", "WorkUnit", "gate_work_unit",
    "gpu_work_unit", "make_scheme", "merged_gate_results",
    "register_unit_kind", "wilson_interval",
    "CampaignFabric", "FabricConfig", "FabricReport", "partition_units",
    "run_fabric_campaign",
    "Journal", "JournalState",
    "Lease", "LeaseTable", "rebase_journal",
    "MergedCampaign", "ShardSource", "merge_fabric_dir",
    "merge_shard_journals", "write_merged_report",
    "CampaignSupervisor", "ResourceBudget", "SupervisorConfig",
]
