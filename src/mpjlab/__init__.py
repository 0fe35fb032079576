"""mpjlab: simulate, verify, and attack one-way pointer-jumping protocols."""

from .core import (
    BitVector,
    BudgetExceededError,
    Instance,
    LayerFunction,
    MpjHatInstance,
    MpjInstance,
    Variant,
    collapsed_suffixes,
    enumerate_instances,
    eval_instance,
    eval_mpj,
    eval_mpj_hat,
    instance_count,
    instance_from_dict,
    instance_to_dict,
    sample_instance,
    sample_instances,
)
from .covers import (
    CoverSet,
    build_d_cover,
    build_sd_cover,
    verify_d_cover,
    verify_sd_cover,
)
from .sim import (
    Message,
    PlayerView,
    ProtocolContractError,
    ProtocolHandle,
    ProtocolInvariantError,
    Transcript,
    VerifyReport,
    ViewKind,
    make_view,
    run,
    verify,
)
from .jump import (
    PermProtocol3,
    SjChain,
    build_sj_chain,
    check_perm_protocol3,
    index_protocol,
    mpj3_sublinear,
    mpjk_sublinear,
    naive_perm_protocol,
)
from .bucketing import (
    BucketPlan,
    bucket_index,
    bucket_members,
    bucketing_protocol,
    bucketing_protocol_doubling,
    iterated_log,
)
from .adversary import (
    BoundRefusedError,
    CrossingPair,
    CrossingSearchError,
    FoolingPair,
    FoolingReport,
    build_fooling_inputs,
    find_crossed_cell,
    iab_sets,
    is_crossing,
    max_message_bits,
    verify_fooling,
)
from .families import (
    collapsing_family,
    constant_protocol,
    hashing_protocol,
    parity_protocol,
    truncating_protocol,
)
from .registry import BuiltProtocol, UnknownProtocolError, build_protocol

__version__ = "0.1.0"
