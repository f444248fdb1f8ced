"""A hand-assembled ERC-20 token contract.

Uses the genuine Solidity storage layout (balances in the mapping at
slot 0, allowances nested under slot 1, total supply in slot 2) and the
real 4-byte ABI selectors, so its execution profile — keccak-heavy slot
derivation, LOG3 Transfer events, consecutive-call warm storage — is the
one the paper's Figure 5 "Transfer" benchmark and the pre-execution use
case (trading an ERC-20 token) exercise.
"""

from __future__ import annotations

from repro.crypto.keccak import keccak256
from repro.workloads.asm import Item, assemble, label, push, push_label

# Real ABI selectors.
SEL_TRANSFER = 0xA9059CBB      # transfer(address,uint256)
SEL_BALANCE_OF = 0x70A08231    # balanceOf(address)
SEL_MINT = 0x40C10F19          # mint(address,uint256)
SEL_TOTAL_SUPPLY = 0x18160DDD  # totalSupply()
SEL_APPROVE = 0x095EA7B3       # approve(address,uint256)
SEL_ALLOWANCE = 0xDD62ED3E     # allowance(address,address)
SEL_TRANSFER_FROM = 0x23B872DD  # transferFrom(address,address,uint256)

BALANCES_SLOT = 0
ALLOWANCES_SLOT = 1
TOTAL_SUPPLY_SLOT = 2

TRANSFER_EVENT_SIG = int.from_bytes(
    keccak256(b"Transfer(address,address,uint256)"), "big"
)


def _map_slot(base_slot: int) -> list[Item]:
    """keccak256(key ++ base_slot) with the key on the stack top."""
    return (
        ["PUSH0", "MSTORE"]                 # mem[0] = key
        + push(base_slot) + push(32) + ["MSTORE"]  # mem[32] = base
        + push(64) + ["PUSH0", "SHA3"]
    )


def _map_slot_dyn() -> list[Item]:
    """keccak256(key ++ base) with stack [base, key] (key on top)."""
    return (
        ["PUSH0", "MSTORE"]                 # mem[0] = key
        + push(32) + ["MSTORE"]             # mem[32] = base
        + push(64) + ["PUSH0", "SHA3"]
    )


def _return_one() -> list[Item]:
    return push(1) + ["PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]


def _dispatch(selector: int, target: str) -> list[Item]:
    return ["DUP1", "PUSH4", selector, "EQ", push_label(target), "JUMPI"]


def erc20_runtime() -> bytes:
    """Assemble the token's runtime bytecode."""
    program: list[Item] = []
    # Selector dispatch.
    program += ["PUSH0", "CALLDATALOAD"] + push(224) + ["SHR"]
    program += _dispatch(SEL_TRANSFER, "transfer")
    program += _dispatch(SEL_BALANCE_OF, "balance_of")
    program += _dispatch(SEL_MINT, "mint")
    program += _dispatch(SEL_TOTAL_SUPPLY, "total_supply")
    program += _dispatch(SEL_APPROVE, "approve")
    program += _dispatch(SEL_ALLOWANCE, "allowance")
    program += _dispatch(SEL_TRANSFER_FROM, "transfer_from")
    program += ["PUSH0", "PUSH0", "REVERT"]

    # -- transfer(to, amount) ------------------------------------------------
    program += [label("transfer"), "JUMPDEST", "POP"]
    program += push(36) + ["CALLDATALOAD"]            # [amt]
    program += push(4) + ["CALLDATALOAD"]             # [amt, to]
    program += ["CALLER"] + _map_slot(BALANCES_SLOT)  # [amt, to, fromSlot]
    program += ["DUP1", "SLOAD"]                      # [amt, to, fs, fromBal]
    program += ["DUP4", "DUP2", "LT", push_label("revert"), "JUMPI"]
    program += ["DUP4", "SWAP1", "SUB"]               # fromBal - amt
    program += ["SWAP1", "SSTORE"]                    # [amt, to]
    program += ["DUP1"] + _map_slot(BALANCES_SLOT)    # [amt, to, toSlot]
    program += ["DUP1", "SLOAD", "DUP4", "ADD", "SWAP1", "SSTORE"]
    # LOG3 Transfer(caller, to, amt)
    program += ["DUP2", "PUSH0", "MSTORE"]            # data = amt
    program += ["CALLER", "PUSH32", TRANSFER_EVENT_SIG]
    program += push(32) + ["PUSH0", "LOG3", "POP"]
    program += _return_one()

    # -- balanceOf(addr) -------------------------------------------------------
    program += [label("balance_of"), "JUMPDEST", "POP"]
    program += push(4) + ["CALLDATALOAD"] + _map_slot(BALANCES_SLOT)
    program += ["SLOAD", "PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]

    # -- mint(to, amount) --------------------------------------------------------
    program += [label("mint"), "JUMPDEST", "POP"]
    program += push(36) + ["CALLDATALOAD"]            # [amt]
    program += push(4) + ["CALLDATALOAD"]             # [amt, to]
    program += _map_slot(BALANCES_SLOT)               # [amt, slot]
    program += ["DUP1", "SLOAD", "DUP3", "ADD", "SWAP1", "SSTORE"]  # [amt]
    program += push(TOTAL_SUPPLY_SLOT) + ["SLOAD", "ADD"]
    program += push(TOTAL_SUPPLY_SLOT) + ["SSTORE"]
    program += _return_one()

    # -- totalSupply() ---------------------------------------------------------------
    program += [label("total_supply"), "JUMPDEST", "POP"]
    program += push(TOTAL_SUPPLY_SLOT) + ["SLOAD", "PUSH0", "MSTORE"]
    program += push(32) + ["PUSH0", "RETURN"]

    # -- approve(spender, amount) ----------------------------------------------------
    program += [label("approve"), "JUMPDEST", "POP"]
    program += push(36) + ["CALLDATALOAD"]            # [amt]
    program += ["CALLER"] + _map_slot(ALLOWANCES_SLOT)  # [amt, inner]
    program += push(4) + ["CALLDATALOAD"] + _map_slot_dyn()  # [amt, slot]
    program += ["SSTORE"]
    program += _return_one()

    # -- allowance(owner, spender) ---------------------------------------------------
    program += [label("allowance"), "JUMPDEST", "POP"]
    program += push(4) + ["CALLDATALOAD"] + _map_slot(ALLOWANCES_SLOT)
    program += push(36) + ["CALLDATALOAD"] + _map_slot_dyn()
    program += ["SLOAD", "PUSH0", "MSTORE"] + push(32) + ["PUSH0", "RETURN"]

    # -- transferFrom(from, to, amount) ------------------------------------------------
    program += [label("transfer_from"), "JUMPDEST", "POP"]
    program += push(68) + ["CALLDATALOAD"]            # [amt]
    program += push(4) + ["CALLDATALOAD"] + _map_slot(ALLOWANCES_SLOT)
    program += ["CALLER"] + _map_slot_dyn()           # [amt, aSlot]
    program += ["DUP1", "SLOAD"]                      # [amt, aSlot, allow]
    program += ["DUP3", "DUP2", "LT", push_label("revert"), "JUMPI"]
    program += ["DUP3", "SWAP1", "SUB", "SWAP1", "SSTORE"]  # [amt]
    program += push(4) + ["CALLDATALOAD"] + _map_slot(BALANCES_SLOT)
    program += ["DUP1", "SLOAD"]                      # [amt, fSlot, fBal]
    program += ["DUP3", "DUP2", "LT", push_label("revert"), "JUMPI"]
    program += ["DUP3", "SWAP1", "SUB", "SWAP1", "SSTORE"]  # [amt]
    program += push(36) + ["CALLDATALOAD"] + _map_slot(BALANCES_SLOT)
    program += ["DUP1", "SLOAD", "DUP3", "ADD", "SWAP1", "SSTORE", "POP"]
    program += _return_one()

    # -- shared revert ------------------------------------------------------------------
    program += [label("revert"), "JUMPDEST", "PUSH0", "PUSH0", "REVERT"]

    return assemble(program)


def transfer_calldata(to: bytes, amount: int) -> bytes:
    return (
        SEL_TRANSFER.to_bytes(4, "big")
        + to.rjust(32, b"\x00")
        + amount.to_bytes(32, "big")
    )


def balance_of_calldata(owner: bytes) -> bytes:
    return SEL_BALANCE_OF.to_bytes(4, "big") + owner.rjust(32, b"\x00")


def mint_calldata(to: bytes, amount: int) -> bytes:
    return (
        SEL_MINT.to_bytes(4, "big")
        + to.rjust(32, b"\x00")
        + amount.to_bytes(32, "big")
    )


def approve_calldata(spender: bytes, amount: int) -> bytes:
    return (
        SEL_APPROVE.to_bytes(4, "big")
        + spender.rjust(32, b"\x00")
        + amount.to_bytes(32, "big")
    )


def total_supply_calldata() -> bytes:
    return SEL_TOTAL_SUPPLY.to_bytes(4, "big")


def balance_slot(owner: bytes) -> int:
    """The storage slot holding ``owner``'s balance (Solidity layout)."""
    return int.from_bytes(
        keccak256(owner.rjust(32, b"\x00") + BALANCES_SLOT.to_bytes(32, "big")),
        "big",
    )
