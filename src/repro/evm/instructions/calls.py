"""CALL-RETURN instructions: the call stack operations of §II-A.

CALL/CALLCODE/DELEGATECALL/STATICCALL spawn child frames;
CREATE/CREATE2 deploy contracts; RETURN/REVERT/STOP/SELFDESTRUCT halt
the current frame.  World-state commit/discard on frame exit is
implemented with journal snapshots, matching the paper's description of
merging the callee's world-state version into the caller's on RETURN and
discarding it on REVERT.
"""

from __future__ import annotations

from repro.rlp import codec as rlp
from repro.crypto.keccak import keccak256
from repro.evm import gas, opcodes
from repro.evm.exceptions import WriteProtection
from repro.evm.frame import Message
from repro.evm.instructions import register
from repro.state.account import to_address


def _consume_memory(frame, offset: int, length: int) -> None:
    frame.use_gas(gas.memory_expansion_cost(frame.memory.size, offset, length))
    frame.memory.expand_to(offset, length)


def _do_call(vm, frame, kind: str):
    gas_requested = frame.stack.pop()
    target = to_address(frame.stack.pop())
    if kind in ("CALL", "CALLCODE"):
        value = frame.stack.pop()
    else:
        value = 0
    in_offset, in_length = frame.stack.pop(), frame.stack.pop()
    out_offset, out_length = frame.stack.pop(), frame.stack.pop()

    if kind == "CALL" and value and frame.message.is_static:
        raise WriteProtection("value transfer inside STATICCALL")

    _consume_memory(frame, in_offset, in_length)
    _consume_memory(frame, out_offset, out_length)

    # EIP-2929 target access.
    warm = vm.state.warm_address(target)
    vm.tracer.on_account_access(target, not warm)
    frame.use_gas(gas.WARM_ACCESS if warm else gas.COLD_ACCOUNT_ACCESS)

    extra = 0
    if value:
        extra += gas.CALL_VALUE
        if kind == "CALL" and not vm.state.account_exists(target):
            extra += gas.NEW_ACCOUNT
    frame.use_gas(extra)

    gas_limit = min(gas_requested, gas.max_call_gas(frame.gas))
    frame.use_gas(gas_limit)
    if value:
        gas_limit += gas.CALL_STIPEND

    call_data = frame.memory.read(in_offset, in_length)

    if kind == "CALL":
        message = Message(
            caller=frame.address, to=target, code_address=target,
            value=value, data=call_data, gas=gas_limit,
            is_static=frame.message.is_static, depth=frame.depth + 1,
        )
    elif kind == "CALLCODE":
        message = Message(
            caller=frame.address, to=frame.address, code_address=target,
            value=value, data=call_data, gas=gas_limit,
            is_static=frame.message.is_static, depth=frame.depth + 1,
        )
    elif kind == "DELEGATECALL":
        message = Message(
            caller=frame.message.caller, to=frame.address, code_address=target,
            value=frame.message.value, data=call_data, gas=gas_limit,
            is_static=frame.message.is_static, depth=frame.depth + 1,
        )
    else:  # STATICCALL
        message = Message(
            caller=frame.address, to=target, code_address=target,
            value=0, data=call_data, gas=gas_limit,
            is_static=True, depth=frame.depth + 1,
        )

    result = vm.execute_message(message, kind=kind, transfer_value=(kind == "CALL"))

    frame.return_data = result.output
    frame.refund_gas(result.gas_left)
    if result.success:
        frame.stack.push(1)
    else:
        frame.stack.push(0)
    copy_length = min(out_length, len(result.output))
    if copy_length:
        frame.memory.write(out_offset, result.output[:copy_length])


@register(opcodes.CALL)
def call(vm, frame):
    _do_call(vm, frame, "CALL")


@register(opcodes.CALLCODE)
def callcode(vm, frame):
    _do_call(vm, frame, "CALLCODE")


@register(opcodes.DELEGATECALL)
def delegatecall(vm, frame):
    _do_call(vm, frame, "DELEGATECALL")


@register(opcodes.STATICCALL)
def staticcall(vm, frame):
    _do_call(vm, frame, "STATICCALL")


def _do_create(vm, frame, is_create2: bool):
    if frame.message.is_static:
        raise WriteProtection("CREATE inside STATICCALL")
    value = frame.stack.pop()
    offset, length = frame.stack.pop(), frame.stack.pop()
    salt = frame.stack.pop() if is_create2 else None

    if length > gas.MAX_INITCODE_SIZE:
        raise WriteProtection("init code exceeds EIP-3860 limit")
    frame.use_gas(gas.initcode_cost(length))
    if is_create2:
        frame.use_gas(gas.sha3_cost(length))
    _consume_memory(frame, offset, length)
    init_code = frame.memory.read(offset, length)

    sender = frame.address
    nonce = vm.state.get_nonce(sender)
    if salt is not None:
        new_address = to_address(
            keccak256(
                b"\xff" + sender + salt.to_bytes(32, "big") + keccak256(init_code)
            )
        )
    else:
        new_address = to_address(
            keccak256(rlp.encode([sender, rlp.encode_uint(nonce)]))
        )

    gas_limit = gas.max_call_gas(frame.gas)
    frame.use_gas(gas_limit)

    message = Message(
        caller=sender, to=new_address, code_address=new_address,
        value=value, data=b"", gas=gas_limit,
        is_create=True, depth=frame.depth + 1,
    )
    result = vm.execute_create(message, init_code)

    frame.refund_gas(result.gas_left)
    # Per EIP-211, CREATE only sets returndata on failure (revert data).
    frame.return_data = result.output if not result.success else b""
    if result.success:
        frame.stack.push(int.from_bytes(new_address, "big"))
    else:
        frame.stack.push(0)


@register(opcodes.CREATE)
def create(vm, frame):
    _do_create(vm, frame, is_create2=False)


@register(opcodes.CREATE2)
def create2(vm, frame):
    _do_create(vm, frame, is_create2=True)


@register(opcodes.STOP)
def stop(vm, frame):
    frame.output = b""
    frame.halted = True
    return True


@register(opcodes.RETURN)
def return_(vm, frame):
    offset, length = frame.stack.pop(), frame.stack.pop()
    _consume_memory(frame, offset, length)
    frame.output = frame.memory.read(offset, length)
    frame.halted = True
    return True


@register(opcodes.REVERT)
def revert(vm, frame):
    offset, length = frame.stack.pop(), frame.stack.pop()
    _consume_memory(frame, offset, length)
    frame.output = frame.memory.read(offset, length)
    frame.halted = True
    frame.reverted = True
    return True


@register(opcodes.INVALID)
def invalid(vm, frame):
    from repro.evm.exceptions import InvalidOpcode

    raise InvalidOpcode(0xFE)


@register(opcodes.SELFDESTRUCT)
def selfdestruct(vm, frame):
    if frame.message.is_static:
        raise WriteProtection("SELFDESTRUCT inside STATICCALL")
    beneficiary = to_address(frame.stack.pop())
    warm = vm.state.warm_address(beneficiary)
    if not warm:
        frame.use_gas(gas.COLD_ACCOUNT_ACCESS)
    balance = vm.state.get_balance(frame.address)
    if balance and not vm.state.account_exists(beneficiary):
        frame.use_gas(gas.SELFDESTRUCT_NEW_ACCOUNT)
    vm.state.add_balance(beneficiary, balance)
    vm.state.set_balance(frame.address, 0)
    vm.state.delete_account(frame.address)
    frame.output = b""
    frame.halted = True
    return True
