"""The paper's contribution: the Distributed MinWork (DMW) mechanism."""

from .agent import DMWAgent
from .audit import AuditFinding, AuditReport, TranscriptAuditor, audit_protocol_run
from .checkpoint import ProtocolCheckpoint
from .bidding import (
    AgentCommitments,
    BidPackage,
    ShareBundle,
    all_share_bundles,
    encode_bid,
)
from .deviant import (
    CorruptCommitmentsAgent,
    CorruptSharesAgent,
    DeviantAgent,
    EagerDisclosureAgent,
    FalseComplaintAgent,
    FalseDisclosureAgent,
    FalseWinnerClaimAgent,
    InflatedPaymentClaimAgent,
    MisreportBidAgent,
    SilentWinnerAgent,
    WithholdAggregatesAgent,
    WithholdCommitmentsAgent,
    WithholdDisclosureAgent,
    WithholdPaymentClaimAgent,
    WithholdSharesAgent,
    WrongAggregatesAgent,
    WrongSecondPriceAgent,
    standard_deviations,
)
from .exceptions import DMWError, ParameterError, ProtocolAbort, ScheduleError
from .naive import NaiveAgent, NaiveDistributedMinWork, run_naive
from .outcome import AuctionTranscript, DMWOutcome
from .parameters import DMWParameters
from .payments import PaymentDecision, PaymentInfrastructure
from .protocol import DMWProtocol, run_dmw
from .resolution import (
    ResolutionError,
    identify_winner,
    resolve_first_price,
    resolve_second_price,
)
from .verification import (
    gamma_value,
    phi_value,
    verify_f_disclosure,
    verify_lambda_psi,
    verify_share_bundle,
)

__all__ = [
    "AgentCommitments",
    "AuctionTranscript",
    "AuditFinding",
    "AuditReport",
    "TranscriptAuditor",
    "audit_protocol_run",
    "BidPackage",
    "CorruptCommitmentsAgent",
    "CorruptSharesAgent",
    "DMWAgent",
    "DMWError",
    "DMWOutcome",
    "DMWParameters",
    "DMWProtocol",
    "DeviantAgent",
    "EagerDisclosureAgent",
    "FalseComplaintAgent",
    "FalseDisclosureAgent",
    "FalseWinnerClaimAgent",
    "InflatedPaymentClaimAgent",
    "MisreportBidAgent",
    "NaiveAgent",
    "NaiveDistributedMinWork",
    "ParameterError",
    "PaymentDecision",
    "PaymentInfrastructure",
    "ProtocolAbort",
    "ProtocolCheckpoint",
    "ResolutionError",
    "ScheduleError",
    "ShareBundle",
    "WithholdAggregatesAgent",
    "WithholdCommitmentsAgent",
    "WithholdDisclosureAgent",
    "WithholdPaymentClaimAgent",
    "WithholdSharesAgent",
    "WrongAggregatesAgent",
    "WrongSecondPriceAgent",
    "all_share_bundles",
    "encode_bid",
    "gamma_value",
    "identify_winner",
    "phi_value",
    "resolve_first_price",
    "resolve_second_price",
    "SilentWinnerAgent",
    "run_dmw",
    "run_naive",
    "standard_deviations",
    "verify_f_disclosure",
    "verify_lambda_psi",
    "verify_share_bundle",
]
