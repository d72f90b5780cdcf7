"""Hyperledger Fabric simulator (execute-order-validate).

A from-scratch structural simulation of a Fabric 2.2 network:

- **Endorsers** execute chaincode against their committed state and sign
  the resulting read/write sets.
- The **ordering service** batches endorsed transactions into blocks,
  cutting on transaction count, accumulated bytes, or a batch timeout
  (like Fabric's Raft-backed orderer).
- **Peers** validate each transaction (endorsement policy + MVCC version
  check of its read set) and apply write sets to their local state
  database, appending the block to their copy of the chain.

Timing is modelled with the discrete-event kernel in :mod:`repro.sim`;
functional behaviour (crypto, state, chaincode effects) is executed for
real.  See :class:`repro.fabric.network.FabricNetwork` for the wiring
and :class:`repro.fabric.config.NetworkConfig` for the timing knobs.
"""

from repro.fabric.chaincode import Chaincode, TxContext
from repro.fabric.config import (
    MULTI_REGION,
    SINGLE_REGION,
    LatencyModel,
    NetworkConfig,
)
from repro.fabric.identity import MembershipServiceProvider, User
from repro.fabric.network import FabricNetwork, Gateway
from repro.fabric.private_data import PrivateDataManager

__all__ = [
    "Chaincode",
    "TxContext",
    "NetworkConfig",
    "LatencyModel",
    "SINGLE_REGION",
    "MULTI_REGION",
    "User",
    "MembershipServiceProvider",
    "FabricNetwork",
    "Gateway",
    "PrivateDataManager",
]
